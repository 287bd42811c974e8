package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clkTck is the kernel's USER_HZ. It is 100 on every Linux ABI Go
// supports; reading it properly needs cgo's sysconf.
const clkTck = 100

// cpuTimes is a process's accumulated CPU time.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// procCPU reads utime and stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (cpuTimes, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name is in parentheses and may contain spaces; fields
	// are counted from the last ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	tick := time.Second / clkTck
	return cpuTimes{time.Duration(ut) * tick, time.Duration(st) * tick}, nil
}

// procRunTime is the CPU time of pid in nanosecond steps: the on-CPU time
// of each of its threads from /proc/<pid>/task/*/schedstat, summed. The
// 10 ms ticks of /proc/<pid>/stat are too coarse for a half-second slice.
// Where the kernel keeps no schedstat it falls back to the ticks. A thread
// that exits takes its time with it; pqd's threads live as long as it does.
func procRunTime(pid int) (time.Duration, error) {
	files, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var total int64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		total += ns
	}
	if total == 0 {
		c, err := procCPU(pid)
		return c.total(), err
	}
	return time.Duration(total), nil
}

// selfCPU is this process's CPU time, from getrusage (microsecond steps).
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())}
}

// peakRSSMB reads VmHWM of pid (0 = this process) in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// fingerprint identifies the machine and build a report came from, so two
// reports can be told apart before their numbers are compared.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	LoadStart  float64 `json:"load_start"`
	LoadEnd    float64 `json:"load_end"`
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return v
}

func takeFingerprint(seed uint64) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		LoadStart:  loadAvg(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					fp.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; "unknown" is normal there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}
