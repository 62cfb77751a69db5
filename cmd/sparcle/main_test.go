package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparcle/internal/obs"
	"sparcle/internal/scenario"
)

func writeExample(t *testing.T) string {
	t.Helper()
	data, err := scenario.Example().Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunText(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-f", writeExample(t)}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"face-detection", "rate=", "path 1", "camera->ncp1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-f", writeExample(t), "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var results []appResult
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("invalid JSON output: %v\n%s", err, out.String())
	}
	if len(results) != 1 || !results[0].Admitted {
		t.Fatalf("results = %+v", results)
	}
	if results[0].TotalRate <= 0 || len(results[0].Paths) == 0 {
		t.Fatalf("result incomplete: %+v", results[0])
	}
	if results[0].Paths[0].Hosts["camera"] != "ncp1" {
		t.Fatalf("pinned camera host = %q", results[0].Paths[0].Hosts["camera"])
	}
}

func TestRunExampleFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-example"}, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Parse(out.Bytes()); err != nil {
		t.Fatalf("emitted example does not parse: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -f must error")
	}
	if err := run([]string{"-f", "/nonexistent/file.json"}, &out); err == nil {
		t.Fatal("unreadable file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-f", bad}, &out); err == nil {
		t.Fatal("invalid scenario must error")
	}
}

func TestRejectedAppReported(t *testing.T) {
	f := scenario.Example()
	// Demand an impossible guaranteed rate.
	f.Apps[0].QoS = scenario.QoSSpec{Class: "guaranteed-rate", MinRate: 1e9, MinRateAvailability: 0.99}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reject.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-f", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "REJECTED") {
		t.Fatalf("output missing rejection:\n%s", out.String())
	}
}

// writeGRMultipath writes the example network with failure-prone field
// NCPs and two guaranteed-rate apps: one admitted on two paths, one
// rejected for an impossible minimum rate.
func writeGRMultipath(t *testing.T) string {
	t.Helper()
	f := scenario.Example()
	for i := range f.Network.NCPs {
		if f.Network.NCPs[i].Name != "ncp1" {
			f.Network.NCPs[i].FailProb = 0.05
		}
	}
	gr, impossible := f.Apps[0], f.Apps[0]
	gr.Name = "face-gr"
	gr.QoS = scenario.QoSSpec{Class: "guaranteed-rate", MinRate: 0.1, MinRateAvailability: 0.98, MaxPaths: 3}
	impossible.Name = "face-impossible"
	impossible.QoS = scenario.QoSSpec{Class: "guaranteed-rate", MinRate: 1e9, MinRateAvailability: 0.99}
	f.Apps = []scenario.AppSpec{gr, impossible}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gr-multipath.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExplainFlag compares -explain output byte for byte with the
// committed goldens.
func TestExplainFlag(t *testing.T) {
	for _, tc := range []struct {
		golden   string
		scenario func(*testing.T) string
	}{
		{"explain-example.golden", writeExample},
		{"explain-gr-multipath.golden", writeGRMultipath},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-f", tc.scenario(t), "-explain"}, &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s differs:\n got:\n%s\nwant:\n%s", tc.golden, out.Bytes(), want)
		}
	}
}

func TestDOTFlag(t *testing.T) {
	var out bytes.Buffer
	dotPath := filepath.Join(t.TempDir(), "out.dot")
	if err := run([]string{"-f", writeExample(t), "-dot", dotPath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph placement") {
		t.Fatalf("DOT file content wrong:\n%s", data)
	}
}

// TestRunTrace runs the example scenario with -trace and checks the
// produced JSON Lines decode into span records carrying the decisions:
// the admission verdict, the ranked picks and the committed routes.
func TestRunTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-f", writeExample(t), "-trace", tracePath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.SpanRecord
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var r obs.SpanRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	found := map[string]int{}
	for _, r := range recs {
		switch r.Name {
		case "batch.submit":
			if r.Attrs["app"] == "face-detection" && r.Attrs["outcome"] == "admitted" && r.Attrs["paths"] != nil {
				found["admission"]++
			}
		case "assign.rank":
			if r.Attrs["ct"] != nil && r.Attrs["gamma"] != nil {
				found["ranking"]++
			}
		}
		for _, ev := range r.Events {
			found[ev.Name]++
		}
	}
	for _, want := range []string{"admission", "ranking", "pin", "route"} {
		if found[want] == 0 {
			t.Fatalf("no %q decisions in the span trace; got %v", want, found)
		}
	}
}
