package chaos

import (
	"encoding/json"
	"testing"

	"sparcle/internal/core"
	"sparcle/internal/placement"
)

// TestChaosHealsAreJournaled runs the self-healing loop over a scheduler
// with a commit hook: every chaos-driven mutation (outage fluctuation,
// repair, restore) must emit a journal record, and replaying the stream
// must rebuild the post-chaos scheduler byte-for-byte.
func TestChaosHealsAreJournaled(t *testing.T) {
	net := twoBranchNet(t, 100, 100, 1e6, 0.05, 0)
	var recs []*core.Record
	s := core.New(net)
	s.SetCommitHook(func(rec *core.Record) error {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		cp := &core.Record{}
		if err := json.Unmarshal(b, cp); err != nil {
			return err
		}
		recs = append(recs, cp)
		return nil
	})
	pa, err := s.Submit(grApp(t, "g", net, 10, core.QoS{
		Class: core.GuaranteedRate, MinRate: 5, MinRateAvailability: 0.9, MaxPaths: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	host := pa.Paths[0].P.Host(pa.App.Graph.TopoOrder()[1])

	tr, err := FromOutages(100, []Outage{
		{Element: placement.NCPElement(host), From: 10, To: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(s, Policy{})
	res, err := d.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairSuccesses != 1 {
		t.Fatalf("repair successes = %d, want 1", res.RepairSuccesses)
	}

	ops := map[string]int{}
	for _, rec := range recs {
		ops[rec.Op]++
	}
	// 1 admission (a batch of one) + at least the outage fluctuation,
	// the repair, and the restore fluctuation.
	if ops[core.OpBatch] != 1 {
		t.Fatalf("batch records = %d, want 1 (ops: %v)", ops[core.OpBatch], ops)
	}
	if ops[core.OpFluctuation] < 2 {
		t.Fatalf("fluctuation records = %d, want >= 2 for outage + restore (ops: %v)", ops[core.OpFluctuation], ops)
	}
	if ops[core.OpRepair] != res.RepairSuccesses+res.RepairFailures {
		t.Fatalf("repair records = %d, want %d (ops: %v)", ops[core.OpRepair], res.RepairSuccesses+res.RepairFailures, ops)
	}

	rebuilt, err := core.Rebuild(net, nil, recs)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	liveSnap, err := s.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	rebuiltSnap, err := rebuilt.ExportSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	liveJSON, _ := json.Marshal(liveSnap)
	rebuiltJSON, _ := json.Marshal(rebuiltSnap)
	if string(liveJSON) != string(rebuiltJSON) {
		t.Fatalf("replayed chaos run diverged from live scheduler\nlive:    %s\nrebuilt: %s", liveJSON, rebuiltJSON)
	}
}
