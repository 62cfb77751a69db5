package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/resource"
	"sparcle/internal/server"
)

// loadTarget spins up a span-instrumented in-process server for the
// generator to shoot at.
func loadTarget(t *testing.T) *httptest.Server {
	t.Helper()
	b := network.NewBuilder("load-test")
	src := b.AddNCP("src", resource.Vector{resource.CPU: 200}, 0)
	m1 := b.AddNCP("m1", resource.Vector{resource.CPU: 150}, 0)
	m2 := b.AddNCP("m2", resource.Vector{resource.CPU: 120}, 0)
	snk := b.AddNCP("snk", resource.Vector{resource.CPU: 200}, 0)
	b.AddLink("s1", src, m1, 1e9, 0)
	b.AddLink("s2", src, m2, 1e9, 0)
	b.AddLink("m", m1, m2, 1e9, 0)
	b.AddLink("k1", m1, snk, 1e9, 0)
	b.AddLink("k2", m2, snk, 1e9, 0)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(net)
	srv.EnableSpans(obs.NewSpanTracer(obs.SpanOptions{Metrics: srv.Metrics()}))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestLoadRun drives a short open-loop run end to end: the report must
// land on disk with nonzero admissions, client quantiles, and the
// server's span-derived stage table; -check-flight must pass.
func TestLoadRun(t *testing.T) {
	ts := loadTarget(t)
	addr := strings.TrimPrefix(ts.URL, "http://")
	outFile := filepath.Join(t.TempDir(), "report.json")

	var out bytes.Buffer
	err := run([]string{
		"-addr", addr,
		"-rate", "200",
		"-duration", "1s",
		"-seed", "7",
		"-keep", "8",
		"-out", outFile,
		"-min-admitted", "10",
		"-check-flight",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}

	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Client.Admitted < 10 {
		t.Fatalf("admitted = %d, want >= 10", rep.Client.Admitted)
	}
	if rep.Client.AdmissionsPerSec <= 0 {
		t.Fatal("admissions/sec not reported")
	}
	if rep.Client.Latency.Count == 0 || rep.Client.Latency.P50 <= 0 || rep.Client.Latency.P999 < rep.Client.Latency.P50 {
		t.Fatalf("client latency quantiles malformed: %+v", rep.Client.Latency)
	}
	sub, ok := rep.Server.Stages["core.batch"]
	if !ok || sub.Count == 0 || sub.P99 <= 0 {
		t.Fatalf("server stage attribution missing: %+v", rep.Server.Stages)
	}
	if !strings.Contains(out.String(), "flight check: ok") {
		t.Fatalf("flight check not reported:\n%s", out.String())
	}
}

// TestLoadMinAdmitted: an unmeetable admission floor must fail the run
// (the CI smoke contract).
func TestLoadMinAdmitted(t *testing.T) {
	ts := loadTarget(t)
	addr := strings.TrimPrefix(ts.URL, "http://")
	var out bytes.Buffer
	err := run([]string{
		"-addr", addr,
		"-rate", "20",
		"-duration", "200ms",
		"-min-admitted", "1000000",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "admitted") {
		t.Fatalf("expected admission-floor failure, got %v", err)
	}
}

// TestLoadBadAddr: a missing or unreachable server is a clean error,
// not a hang or panic.
func TestLoadBadAddr(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing -addr accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1"}, &out); err == nil {
		t.Fatal("unreachable server accepted")
	}
}
