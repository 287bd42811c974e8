package flight

import (
	"strings"
	"testing"
)

// synthetic builds matched client/server dumps for n traces with known
// span arithmetic:
//
//	client: send at 1000·i, recv at 1000·i + 500   → e2e 500
//	server: read at 2000·i, apply end read+120 (dur 100), flush read+200
//	        → queue 20, structure 100, flush 80, server 200, network 300
func synthetic(n int) (client, server Dump) {
	client = Dump{Name: "client"}
	server = Dump{Name: "server"}
	for i := 0; i < n; i++ {
		tr := uint64(i + 1)
		cs := int64(1000 * (i + 1))
		ss := int64(2000 * (i + 1))
		client.Events = append(client.Events,
			Event{TS: cs, Kind: KClientSend, Trace: tr},
			Event{TS: cs + 500, Kind: KClientRecv, Trace: tr},
		)
		server.Events = append(server.Events,
			Event{TS: ss, Kind: KServerRead, Trace: tr, Arg: 12345},
			Event{TS: ss + 120, Kind: KServerApply, Trace: tr, Arg: 100},
			Event{TS: ss + 200, Kind: KServerFlush, Trace: tr, Arg: 200},
		)
	}
	return client, server
}

// TestAttributeExact: the span arithmetic on synthetic dumps.
func TestAttributeExact(t *testing.T) {
	client, server := synthetic(10)
	a := Attribute(client, server)
	if a.Total != 10 || a.Attributed != 10 || a.Rate() != 1 {
		t.Fatalf("attribution = %d/%d rate %.2f, want 10/10 rate 1", a.Attributed, a.Total, a.Rate())
	}
	if a.ClientOnly+a.ServerOnly+a.Partial != 0 {
		t.Fatalf("orphans on complete dumps: %+v", a)
	}
	for _, s := range a.Spans {
		if s.EndToEnd != 500 || s.Server != 200 || s.Queue != 20 ||
			s.Structure != 100 || s.Flush != 80 || s.Network != 300 {
			t.Fatalf("span arithmetic wrong: %+v", s)
		}
		if s.Network+s.Queue+s.Structure+s.Flush != s.EndToEnd {
			t.Fatalf("spans do not sum to end-to-end: %+v", s)
		}
	}
}

// TestAttributeOrphans: traces missing one side entirely are orphans;
// traces missing one event are partial; neither is silently attributed.
func TestAttributeOrphans(t *testing.T) {
	client, server := synthetic(4)
	// Trace 5: client only.
	client.Events = append(client.Events,
		Event{TS: 9000, Kind: KClientSend, Trace: 5},
		Event{TS: 9100, Kind: KClientRecv, Trace: 5})
	// Trace 6: server only.
	server.Events = append(server.Events,
		Event{TS: 9000, Kind: KServerRead, Trace: 6},
		Event{TS: 9050, Kind: KServerApply, Trace: 6, Arg: 10},
		Event{TS: 9100, Kind: KServerFlush, Trace: 6})
	// Trace 7: both sides, but the server flush was overwritten.
	client.Events = append(client.Events,
		Event{TS: 9500, Kind: KClientSend, Trace: 7},
		Event{TS: 9600, Kind: KClientRecv, Trace: 7})
	server.Events = append(server.Events,
		Event{TS: 9500, Kind: KServerRead, Trace: 7},
		Event{TS: 9550, Kind: KServerApply, Trace: 7, Arg: 10})
	a := Attribute(client, server)
	if a.Total != 7 || a.Attributed != 4 {
		t.Fatalf("attributed %d/%d, want 4/7", a.Attributed, a.Total)
	}
	if a.ClientOnly != 1 || a.ServerOnly != 1 || a.Partial != 1 {
		t.Fatalf("orphan tally = %+v, want 1/1/1", a)
	}
}

// TestAttributeIgnoresUntraced: structural events (trace 0) never create
// phantom traces.
func TestAttributeIgnoresUntraced(t *testing.T) {
	client, server := synthetic(2)
	server.Events = append(server.Events,
		Event{TS: 1, Kind: KLockRetry},
		Event{TS: 2, Kind: KServerBatch, Arg: 16},
		Event{TS: 3, Kind: KDrainStart})
	a := Attribute(client, server)
	if a.Total != 2 || a.Attributed != 2 {
		t.Fatalf("untraced events leaked into attribution: %+v", a)
	}
}

// TestAttributeNetworkClamp: when clock jitter makes the server span
// exceed the client's end-to-end, network clamps at zero instead of going
// negative.
func TestAttributeNetworkClamp(t *testing.T) {
	client := Dump{Events: []Event{
		{TS: 100, Kind: KClientSend, Trace: 1},
		{TS: 150, Kind: KClientRecv, Trace: 1},
	}}
	server := Dump{Events: []Event{
		{TS: 0, Kind: KServerRead, Trace: 1},
		{TS: 60, Kind: KServerApply, Trace: 1, Arg: 50},
		{TS: 80, Kind: KServerFlush, Trace: 1},
	}}
	a := Attribute(client, server)
	if len(a.Spans) != 1 || a.Spans[0].Network != 0 {
		t.Fatalf("network not clamped: %+v", a.Spans)
	}
}

// TestTable: the rendered table carries every span row and the orphan
// tally line.
func TestTable(t *testing.T) {
	client, server := synthetic(5)
	a := Attribute(client, server)
	tab := a.Table()
	for _, want := range []string{"network", "server.queue", "structure", "server.flush", "end-to-end", "attributed: 5 (100.0%)"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
}

// TestRateEmpty: no traces at all is a vacuous 100%.
func TestRateEmpty(t *testing.T) {
	a := Attribute(Dump{}, Dump{})
	if a.Rate() != 1 || a.Total != 0 {
		t.Fatalf("empty attribution = %+v", a)
	}
}
