package obs

import (
	"regexp"
	"strings"
	"testing"
)

// fixedSnapshot is a deterministic input for exposition tests.
func fixedSnapshot() Snapshot {
	return Snapshot{
		Name:    "skipqueue.server",
		Enabled: true,
		Counters: []CounterValue{
			{Name: "frames", Value: 1234},
			{Name: "frames.insert", Value: 600},
		},
		Hists: []HistValue{
			{
				Name: "frame.apply", Unit: UnitDuration,
				Count: 100, Mean: 1500, Max: 16000,
				Octaves: []OctaveCount{{Lo: 1024, Count: 80}, {Lo: 8192, Count: 20}},
			},
			{
				Name: "batch.frames", Unit: UnitCount,
				Count: 10, Mean: 4, Max: 16,
				Octaves: []OctaveCount{{Lo: 2, Count: 6}, {Lo: 8, Count: 4}},
			},
		},
	}
}

// TestWritePromRendering: the exact exposition of a fixed snapshot —
// counters as _total, duration histograms in seconds with cumulative
// buckets, count histograms raw.
func TestWritePromRendering(t *testing.T) {
	var b strings.Builder
	WriteProm(&b, "pqd", fixedSnapshot())
	out := b.String()
	for _, want := range []string{
		"# TYPE pqd_skipqueue_server_frames_total counter",
		"pqd_skipqueue_server_frames_total 1234",
		"pqd_skipqueue_server_frames_insert_total 600",
		"# TYPE pqd_skipqueue_server_frame_apply_seconds histogram",
		// band [1024,2048) cumulative 80, upper bound 2048ns = 2.048e-6s
		`pqd_skipqueue_server_frame_apply_seconds_bucket{le="0.000002048"} 80`,
		`pqd_skipqueue_server_frame_apply_seconds_bucket{le="0.000016384"} 100`,
		`pqd_skipqueue_server_frame_apply_seconds_bucket{le="+Inf"} 100`,
		"pqd_skipqueue_server_frame_apply_seconds_sum 0.00015",
		"pqd_skipqueue_server_frame_apply_seconds_count 100",
		"pqd_skipqueue_server_frame_apply_seconds_max 0.000016",
		"# TYPE pqd_skipqueue_server_batch_frames histogram",
		`pqd_skipqueue_server_batch_frames_bucket{le="4"} 6`,
		`pqd_skipqueue_server_batch_frames_bucket{le="16"} 10`,
		"pqd_skipqueue_server_batch_frames_sum 40",
		"pqd_skipqueue_server_batch_frames_max 16",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// promLine validates one exposition line: comment, blank, or
// `name{labels} value`.
var promLine = regexp.MustCompile(`^(#.*|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [-+]?[0-9.eE+Inf]+)$`)

// TestWritePromFormat: every emitted line is well-formed exposition
// syntax, and every metric family has a TYPE line before its samples.
func TestWritePromFormat(t *testing.T) {
	var b strings.Builder
	WriteProm(&b, "pqd", fixedSnapshot(), Snapshot{Name: "off"}) // disabled snapshot skipped
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suffix)
		}
		if !typed[family] && !typed[name] {
			t.Fatalf("sample %q has no preceding TYPE line", line)
		}
	}
	if strings.Contains(b.String(), "off") {
		t.Fatal("disabled snapshot leaked into the exposition")
	}
}

// TestWritePromLive: a real Set round-trips through Snapshot into valid
// exposition with its recorded values.
func TestWritePromLive(t *testing.T) {
	set := NewSet("live.set")
	set.Counter("hits").Add(3)
	set.Durations("lat").Observe(1000)
	var b strings.Builder
	WriteProm(&b, "t", set.Snapshot())
	if !strings.Contains(b.String(), "t_live_set_hits_total 3") {
		t.Fatalf("live counter missing:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "t_live_set_lat_seconds_count 1") {
		t.Fatalf("live histogram missing:\n%s", b.String())
	}
}

// TestPromName: arbitrary probe names sanitize into the metric charset.
func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"skipqueue.server": "skipqueue_server",
		"shard.02.pops":    "shard_02_pops",
		"9lives":           "_9lives",
		"ok_name":          "ok_name",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
