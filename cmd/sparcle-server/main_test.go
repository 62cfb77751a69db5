package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

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

func TestServerServesScenario(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-f", writeExample(t), "-addr", "127.0.0.1:0", "-submit"}, &out, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	resp, err := http.Get("http://" + addr + "/apps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apps []map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&apps); err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0]["name"] != "face-detection" {
		t.Fatalf("apps = %+v", apps)
	}
	if !strings.Contains(out.String(), "admitted \"face-detection\"") {
		t.Fatalf("startup log missing admission: %s", out.String())
	}

	resp2, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp2.StatusCode)
	}

	// Tracing is off by default.
	resp3, err := http.Get("http://" + addr + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/flight without -trace or -flight: %d", resp3.StatusCode)
	}
}

func TestServerValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, nil); err == nil {
		t.Fatal("missing -f must error")
	}
	if err := run([]string{"-f", "/nope.json"}, &out, nil); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-f", bad}, &out, nil); err == nil {
		t.Fatal("invalid scenario must error")
	}
	if err := run([]string{"-f", writeExample(t), "-addr", "256.0.0.1:99999"}, &out, nil); err == nil {
		t.Fatal("bad address must error")
	}
}

// TestServerObservabilityEndpoints starts the server with -pprof and a
// flight ring but no trace file, and checks /metrics, /debug/vars,
// /debug/pprof/ and /debug/flight all respond.
func TestServerObservabilityEndpoints(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-f", writeExample(t), "-addr", "127.0.0.1:0", "-submit", "-pprof", "-flight", "8"}, &out, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "sparcle_admissions_total") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK ||
		!strings.Contains(body, "sparcle_admissions_total") {
		t.Fatalf("/debug/vars: %d\n%s", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d\n%s", code, body)
	}
	// The startup admission is in the ring, verdict included.
	if code, body := get("/debug/flight"); code != http.StatusOK ||
		!strings.Contains(body, `"outcome":"admitted"`) {
		t.Fatalf("/debug/flight: %d\n%s", code, body)
	}
}

// TestServerGracefulShutdown starts the server, confirms it serves, then
// delivers SIGINT to the process: run must drain and return nil rather
// than crash or hang.
func TestServerGracefulShutdown(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-f", writeExample(t), "-addr", "127.0.0.1:0"}, &out, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// run's signal.NotifyContext consumes the signal, so the test binary
	// itself is unaffected.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after SIGINT")
	}
	if !strings.Contains(out.String(), "draining") {
		t.Fatalf("missing drain log: %s", out.String())
	}
	// The listener must be released.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still serving after shutdown")
	}
}

// TestServerBenchmarkArgvShapes boots the server with the four argument
// lists benchmark/cluster.go builds (place_bound, solve_bound,
// durable_repl3, mixed_shard4). All must parse, and -group-commit, which
// three of them carry, must change nothing: every server reports the
// same commit queue on /healthz.
func TestServerBenchmarkArgvShapes(t *testing.T) {
	const mesh = "../../testdata/mesh16.json"
	base := []string{"-f", mesh, "-addr", "127.0.0.1:0", "-runtime-metrics", "1s"}
	journal := func() []string { return []string{"-journal", t.TempDir(), "-journal-fsync", "always"} }
	peers := "n0=http://127.0.0.1:1,n1=http://127.0.0.1:2,n2=http://127.0.0.1:3"
	shapes := map[string][]string{
		"place_bound":   nil,
		"solve_bound":   {"-group-commit"},
		"durable_repl3": append(journal(), "-replicate", "n0", "-peers", peers, "-group-commit"),
		"mixed_shard4":  append(append([]string{"-shards", "4"}, journal()...), "-group-commit"),
	}
	var errcs []chan error
	queues := map[string]string{}
	for name, extra := range shapes {
		var out syncBuffer
		addr, errc := startServer(t, &out, append(append([]string{}, base...), extra...)...)
		errcs = append(errcs, errc)
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hz struct {
			GroupCommit json.RawMessage `json:"groupCommit"`
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s healthz: %v", name, err)
		}
		queues[name] = string(hz.GroupCommit)
	}
	const want = `{"groups":0,"follows":0,"apps":0,"maxSize":64}`
	for name, q := range queues {
		if q != want {
			t.Errorf("%s groupCommit = %s, want %s", name, q, want)
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	for _, errc := range errcs {
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("shutdown returned %v, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a server did not drain after SIGINT")
		}
	}
}
