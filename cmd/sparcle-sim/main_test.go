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

func TestRunSimulatesScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-f", writeExample(t), "-duration", "1000", "-warmup", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "face-detection") || !strings.Contains(got, "throughput") {
		t.Fatalf("output incomplete:\n%s", got)
	}
}

func TestRunValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -f must error")
	}
	if err := run([]string{"-f", "/nope.json"}, &out); err == nil {
		t.Fatal("missing file must error")
	}
	if err := run([]string{"-f", writeExample(t), "-load", "-1"}, &out); err == nil {
		t.Fatal("negative load must error")
	}
}

func TestRunWithGRAndRejectedApps(t *testing.T) {
	f := scenario.Example()
	// Add a GR app that admits and one that cannot.
	base := f.Apps[0]
	gr := base
	gr.Name = "gr-ok"
	gr.QoS = scenario.QoSSpec{Class: "guaranteed-rate", MinRate: 0.05, MinRateAvailability: 0.5, MaxPaths: 1}
	huge := base
	huge.Name = "gr-huge"
	huge.QoS = scenario.QoSSpec{Class: "guaranteed-rate", MinRate: 1e9, MinRateAvailability: 0.9}
	f.Apps = append(f.Apps, gr, huge)

	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mixed.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-f", path, "-duration", "500", "-warmup", "50"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "gr-ok") || !strings.Contains(got, "REJECTED") {
		t.Fatalf("output incomplete:\n%s", got)
	}
}

func TestRunAllAppsRejected(t *testing.T) {
	f := scenario.Example()
	f.Apps[0].QoS = scenario.QoSSpec{Class: "gr", MinRate: 1e9, MinRateAvailability: 0.9}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rejected.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-f", path}, &out); err == nil {
		t.Fatal("no admitted apps must error")
	}
}

// TestRunTrace checks -trace writes the span records sparcle and
// sparcle-server write: the admission verdict on batch.submit.
func TestRunTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-f", writeExample(t), "-duration", "200", "-warmup", "20", "-trace", tracePath}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	admitted := false
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); {
		var r obs.SpanRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		admitted = admitted || (r.Name == "batch.submit" && r.Attrs["outcome"] == "admitted")
	}
	if !admitted {
		t.Fatalf("no admission verdict in the span trace:\n%s", data)
	}
}
