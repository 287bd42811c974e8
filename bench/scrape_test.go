package main

import (
	"os"
	"strings"
	"testing"
)

// The scraper must understand the exposition of every name pqd's own
// golden catalog lists, and the names the bench reads must be in that
// catalog: if pqd renames a metric, this fails before a run reads zeros.
func TestScraperAgainstGoldenCatalog(t *testing.T) {
	b, err := os.ReadFile("../cmd/pqd/testdata/metrics.golden")
	if err != nil {
		t.Skipf("no golden catalog next to the benchmark: %v", err)
	}
	golden := strings.Fields(string(b))
	var expo strings.Builder
	for i, name := range golden {
		if strings.HasSuffix(name, "_bucket") {
			expo.WriteString(name + `{le="+Inf"} 1` + "\n")
			continue
		}
		expo.WriteString("# TYPE " + name + " counter\n")
		expo.WriteString(name + " " + strings.Repeat("1", i%3+1) + ".5\n")
	}
	got, err := parseProm(strings.NewReader(expo.String()))
	if err != nil {
		t.Fatal(err)
	}
	inGolden := map[string]bool{}
	for _, name := range golden {
		inGolden[name] = true
		if strings.HasSuffix(name, "_bucket") {
			if _, ok := got[name]; ok {
				t.Errorf("labelled line %s was parsed as a plain sample", name)
			}
			continue
		}
		if got[name] == 0 {
			t.Errorf("sample %s not parsed", name)
		}
	}
	// _sum lines are not all in the catalog; their _count siblings are.
	for _, name := range []string{
		"batch_coalesce_flushes_total", "batch_coalesce_ops_count", "batch_batch_size_count",
		"wal_sync_fsync_seconds_count", "wal_sync_fsync_seconds_sum", "wal_sync_batch_count",
		"wal_sync_stalls_total",
	} {
		if !inGolden["pqd_skipqueue_"+name] {
			t.Errorf("the bench reads pqd_skipqueue_%s, which pqd's golden catalog does not list", name)
		}
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	if _, err := parseProm(strings.NewReader("pqd_x notanumber\n")); err == nil {
		t.Error("a non-numeric sample was accepted")
	}
	if _, err := parseProm(strings.NewReader("lonelyname\n")); err == nil {
		t.Error("a line without a value was accepted")
	}
}
