// Command bench is the one benchmark of this repository: four workloads
// over the whole stack, a per-layer ladder, and correctness checks that
// reach the exit code. See README.md in this directory.
//
//	bench -workload NAME -seed N -seconds S -trace 0   one workload, end-to-end metrics
//	bench -workload NAME -seed N -seconds S -trace 1   its traced run, per-layer metrics
//	bench -seed N -out FILE                            all four workloads into one report
//	bench -traced -seed N -out FILE -trace-out FILE    all four traced runs
//	bench -compare A.json[,A2...] B.json[,B2...]       two sides' medians against the bounds
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// metric is one reported number. N is the sample count behind a timing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one run of one workload, as written by -out.
type result struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Seconds     float64           `json:"seconds"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Violations  []string          `json:"violations,omitempty"`
	Notes       []string          `json:"notes,omitempty"`
}

// report is what -out holds: one result, or one per workload.
type report struct {
	Runs []result `json:"runs"`
}

var runners = map[string]func(runOpts) (*measured, error){
	"inproc-mixed":      runInprocMixed,
	"inproc-fill-drain": runInprocFillDrain,
	"net-single":        runNetSingle,
	"net-prod-open":     runNetProdOpen,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run one workload (default: all four, each in a fresh child process)")
		seed     = fs.Uint64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 0, "length of the measured window (default: spec.json)")
		trace    = fs.Int("trace", 0, "1 = the traced run, which reports the per-layer metrics")
		traced   = fs.Bool("traced", false, "same as -trace 1")
		out      = fs.String("out", "", "write the report as JSON to this file")
		traceOut = fs.String("trace-out", "", "traced run: write the spans kept in memory to this file")
		compare  = fs.Bool("compare", false, "compare two sides: bench -compare A.json[,A2.json...] B.json[,B2.json...]")
		pqd      = fs.String("pqd", "", "path of the built cmd/pqd binary (run.sh passes it)")
		work     = fs.String("work", os.TempDir(), "directory under which this run makes its scratch directory")
		buildS   = fs.Float64("build-s", 0, "seconds run.sh spent building, reported as build_s")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two sides, each one report or several joined by commas")
			return 2
		}
		return compareReports(spec, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = spec.Seconds
	}
	isTraced := *traced || *trace == 1

	if *workload == "" {
		return runAll(spec, args, *out, *traceOut, *work)
	}
	w, ok := spec.workload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *pqd == "" {
		fmt.Fprintln(os.Stderr, "bench: -pqd is required: start the benchmark through bench/run.sh, which builds cmd/pqd")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	scratch, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(scratch)
	killAllOnSignal(scratch)

	fp := takeFingerprint(*seed)
	if fp.LoadStart > float64(fp.NProc) {
		fmt.Fprintf(os.Stderr, "bench: warning: load average %.2f is above nproc %d; timings will be noisy\n", fp.LoadStart, fp.NProc)
	}
	o := runOpts{
		spec: spec, w: w, seed: *seed, seconds: *seconds, setups: w.Setups,
		env: environ{pqd: *pqd, work: scratch},
	}
	var m *measured
	names := spec.EndToEnd
	if isTraced {
		names = spec.PerLayer
		m, err = runTraced(o, *buildS)
	} else {
		m, err = runners[w.Name](o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fp.LoadEnd = loadAvg()

	// A broken invariant counts as a failure next to the failed operations.
	failed := m.failed + int64(len(m.violations))
	res := result{
		Workload: w.Name, Traced: isTraced, Seconds: *seconds, Fingerprint: fp,
		Correct: failed == 0, Attempted: max(m.attempted, 1), Failed: failed,
		Metrics: map[string]metric{}, Violations: m.violations, Notes: m.notes,
	}
	for _, ms := range names {
		v, ok := m.vals[ms.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if res.Correct {
				// A run that went wrong may stop before it has every
				// number; a run that claims to be correct may not.
				fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", ms.Name)
				return 1
			}
			v = 0
		}
		res.Metrics[ms.Name] = metric{Value: v, Unit: ms.Unit, N: m.n[ms.Name]}
	}
	printResult(res, names)
	if *out != "" {
		if err := writeJSON(*out, report{Runs: []result{res}}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if *traceOut != "" && isTraced {
		if err := writeJSON(*traceOut, m.spans()); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The driver's line: value and unit only.
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for k, v := range res.Metrics {
		line.Metrics[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func printResult(res result, names []metricSpec) {
	fmt.Printf("workload %s  seed %d  window %.1fs  traced %v\n", res.Workload, res.Fingerprint.Seed, res.Seconds, res.Traced)
	fp := res.Fingerprint
	fmt.Printf("machine: nproc=%d gomaxprocs=%d cpu=%q kernel=%s %s commit=%s load=%.2f..%.2f\n",
		fp.NProc, fp.GOMAXPROCS, fp.CPUModel, fp.Kernel, fp.GoVersion, fp.Commit, fp.LoadStart, fp.LoadEnd)
	for _, ms := range names {
		m := res.Metrics[ms.Name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Printf("  %-32s %16.4f %-10s%s\n", ms.Name, m.Value, m.Unit, n)
	}
	for _, s := range res.Notes {
		fmt.Println("  note:", s)
	}
	for _, s := range res.Violations {
		fmt.Println("  VIOLATION:", s)
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in a fresh child process of this binary, so
// that each starts with a clean heap and its own peak-memory mark, and
// gathers the children's reports into one. A -trace-out file gets the
// workload's name appended, one file per child.
func runAll(spec *benchSpec, args []string, out, traceOut, work string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(work, "all-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	var all report
	code := 0
	for _, w := range spec.Workloads {
		part := filepath.Join(dir, w.Name+".json")
		// A repeated flag takes its last value, so these override the
		// caller's -out and -trace-out and everything else passes through.
		childArgs := append(append([]string{}, args...), "-workload", w.Name, "-out", part)
		if traceOut != "" {
			childArgs = append(childArgs, "-trace-out", traceOut+"."+w.Name)
		}
		child := exec.Command(self, childArgs...)
		child.Stdout, child.Stderr = os.Stdout, os.Stderr
		if err := child.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			code = 1
		}
		var r report
		b, err := os.ReadFile(part)
		if err == nil {
			err = json.Unmarshal(b, &r)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s produced no report: %v\n", w.Name, err)
			code = 1
			continue
		}
		all.Runs = append(all.Runs, r.Runs...)
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// runTraced is the traced run of one workload. It measures the ladder,
// the frontier and a short production rung, which do not depend on the
// workload, then the workload itself twice for half the window each:
// untraced as the reference, then with every call timed and kept as a
// span. The difference between the two is the tracing overhead.
func runTraced(o runOpts, buildS float64) (*measured, error) {
	m := newMeasured()
	m.set("build_s", buildS, 0)

	ladder, warn, err := runLadder(o)
	if err != nil {
		return nil, err
	}
	m.notes = append(m.notes, warn...)
	frontier, err := runFrontier(o)
	if err != nil {
		return nil, err
	}
	for _, part := range []map[string]float64{ladder, frontier} {
		for k, v := range part {
			m.vals[k] = v
		}
	}

	// The production rung: the net-prod-open workload at its fixed rate,
	// shortened, for what pqd's admin surface says about batching and WAL.
	prod := o
	prod.w, _ = o.spec.workload("net-prod-open")
	prod.w.SeedElements = o.spec.Ladder.ProdSeedElements
	prod.seconds, prod.setups, prod.traced = o.spec.Ladder.ProdSeconds, 1, false
	pm, err := runNetProdOpen(prod)
	if err != nil {
		return nil, fmt.Errorf("production rung: %w", err)
	}
	for _, k := range []string{
		"wal.seed_s", "wal.recover_s_per_mrec", "wal.fsyncs_per_kop", "wal.records_per_fsync",
		"wal.fsync_mean_us", "wal.stalls", "server.ops_per_apply_run", "client.batch_ops_per_frame",
		"gen.lag_p99_us", "gen.late_share",
	} {
		m.set(k, pm.vals[k], pm.n[k])
	}
	for _, v := range pm.violations {
		m.violate("production rung: %s", v)
	}

	half := o
	half.seconds, half.setups = o.seconds/2, 1
	ref, err := runners[o.w.Name](half)
	if err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	half.traced = true
	tm, err := runners[o.w.Name](half)
	if err != nil {
		return nil, fmt.Errorf("traced window: %w", err)
	}
	for _, k := range []string{
		"proc.allocs_per_op", "proc.gc_pause_ms", "proc.sys_share", "proc.cpu_share",
		"gen.cpu_share", "gen.self_share", "lat_mid_us", "lat_p50_us", "lat_p90_us", "lat_p99_us",
		"tail.lat_p999_us", "tail.lat_max_ms",
	} {
		m.set(k, tm.vals[k], tm.n[k])
	}
	m.set("trace.ops_per_s", tm.vals["ops_per_s"], 0)
	m.set("trace.overhead_share", 1-tm.vals["ops_per_s"]/ref.vals["ops_per_s"], 0)
	m.attempted = pm.attempted + ref.attempted + tm.attempted
	m.failed = pm.failed + ref.failed + tm.failed
	m.violations = append(m.violations, append(ref.violations, tm.violations...)...)
	m.notes = append(m.notes, tm.notes...)
	m.recs = tm.recs
	return m, nil
}

// compareReports prints, for every pairing of end-to-end metric and
// workload, both sides' values, how much worse B is than A, and the bound,
// and returns 1 if any bound is broken. A side is one report or several,
// their paths joined by commas; with several, a side's value is the median
// over its runs of the workload, which is how a claim is judged. Per-layer
// metrics of traced runs are listed and never gate.
func compareReports(spec *benchSpec, pathsA, pathsB string) int {
	load := func(paths string) (map[string][]result, error) {
		m := map[string][]result{}
		for _, path := range strings.Split(paths, ",") {
			b, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			var r report
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			for _, run := range r.Runs {
				k := fmt.Sprintf("%s/%v", run.Workload, run.Traced)
				m[k] = append(m[k], run)
			}
		}
		return m, nil
	}
	a, err := load(pathsA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := load(pathsB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	if len(keys) == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two sides share no run")
		return 2
	}
	// side is the median of a metric over a side's runs.
	side := func(runs []result, name string) float64 {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[name].Value
		}
		return median(vals)
	}
	allCorrect := func(runs []result) bool {
		return !slices.ContainsFunc(runs, func(r result) bool { return !r.Correct })
	}
	breaches := 0
	for _, k := range keys {
		ra, rb := a[k], b[k]
		names := spec.EndToEnd
		if ra[0].Traced {
			names = spec.PerLayer
		}
		fmt.Printf("%s  traced=%v  (A %d runs, B %d runs)\n", ra[0].Workload, ra[0].Traced, len(ra), len(rb))
		if okA, okB := allCorrect(ra), allCorrect(rb); !okA || !okB {
			fmt.Printf("  BREACH: correct A=%v B=%v\n", okA, okB)
			breaches++
		}
		for _, ms := range names {
			va, vb := side(ra, ms.Name), side(rb, ms.Name)
			worse := 0.0 // share of A by which B is worse; negative = better
			if va != 0 {
				worse = (vb - va) / math.Abs(va)
				if ms.Better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			if !ra[0].Traced {
				verdict = fmt.Sprintf("  bound %4.0f%%  ok", ms.Bound*100)
				if worse > ms.Bound {
					verdict = fmt.Sprintf("  bound %4.0f%%  BREACH", ms.Bound*100)
					breaches++
				}
			}
			fmt.Printf("  %-32s %16.4f %16.4f %-10s %+7.1f%%%s\n", ms.Name, va, vb, ms.Unit, worse*100, verdict)
		}
	}
	if breaches > 0 {
		fmt.Printf("%d breach(es)\n", breaches)
		return 1
	}
	return 0
}
