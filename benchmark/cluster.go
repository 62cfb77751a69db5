package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run writes: the server binary, scenario
// files and journals. It is inside the checkout and listed in .gitignore.
const buildDir = ".bench_build"

// buildServer compiles cmd/sparcle-server once per invocation; go's build
// cache makes every build after the first a staleness check.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "sparcle-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sparcle-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/sparcle-server: %v\n%s", err, out)
	}
	return bin, nil
}

// node is one sparcle-server child process.
type node struct {
	id   string
	addr string // host:port
	dir  string // journal directory, "" when not journaled
	args []string
	cmd  *exec.Cmd
	log  *bytes.Buffer
}

func (n *node) url() string { return "http://" + n.addr }

// cluster is the server side of one workload: 1 or 3 child processes.
type cluster struct {
	bin   string
	nodes []*node
}

// freeAddrs reserves n distinct loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// newCluster lays out w's server processes under dir (fresh journal
// directories) without starting them.
func newCluster(bin string, w *workload, scenarioFile, dir string) (*cluster, error) {
	addrs, err := freeAddrs(w.Nodes)
	if err != nil {
		return nil, err
	}
	c := &cluster{bin: bin}
	var peers []string
	for i, a := range addrs {
		peers = append(peers, fmt.Sprintf("n%d=http://%s", i, a))
	}
	for i, a := range addrs {
		n := &node{id: fmt.Sprintf("n%d", i), addr: a}
		// The runtime sampler behind go.gc_pause_ms defaults to 10 s,
		// longer than a phase; 1 s keeps the counter fresh.
		n.args = []string{"-f", scenarioFile, "-addr", a, "-runtime-metrics", "1s"}
		if w.Shards > 1 {
			n.args = append(n.args, "-shards", strconv.Itoa(w.Shards))
		}
		if w.Journal {
			n.dir = filepath.Join(dir, n.id)
			n.args = append(n.args, "-journal", n.dir, "-journal-fsync", "always")
		}
		if w.Nodes > 1 {
			n.args = append(n.args, "-replicate", n.id, "-peers", strings.Join(peers, ","))
		}
		if w.Group {
			n.args = append(n.args, "-group-commit")
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// start execs every node (a restart reuses addresses and journals).
func (c *cluster) start() error {
	for _, n := range c.nodes {
		n.log = &bytes.Buffer{}
		n.cmd = exec.Command(c.bin, n.args...)
		n.cmd.Stdout, n.cmd.Stderr = n.log, n.log
		if err := n.cmd.Start(); err != nil {
			return fmt.Errorf("start %s: %w", n.id, err)
		}
	}
	return nil
}

// kill SIGKILLs every node and waits for it: a crash, journals left open.
func (c *cluster) kill() {
	for _, n := range c.nodes {
		if n.cmd != nil && n.cmd.Process != nil {
			_ = n.cmd.Process.Kill() // already exited is fine
			_ = n.cmd.Wait()         // the exit status of a killed child says nothing
			n.cmd = nil
		}
	}
}

// healthz is the slice of GET /healthz the benchmark reads.
type healthz struct {
	Apps    map[string]int `json:"apps"`
	Journal struct {
		Recovering    bool `json:"recovering"`
		SinceSnapshot int  `json:"sinceSnapshot"`
	} `json:"journal"`
	Sharding *struct {
		Leases int `json:"leases"`
	} `json:"sharding"`
	Replication *struct {
		Role        string `json:"role"`
		Term        uint64 `json:"term"`
		LastSeq     uint64 `json:"lastSeq"`
		LastApplied uint64 `json:"lastApplied"`
		Leader      string `json:"leader"`
		Ready       bool   `json:"ready"`
		LeaderURL   string `json:"leaderUrl"`
	} `json:"replication"`
}

// residents is the number of admitted applications: a cross-region
// application is listed as two region halves under one lease.
func (h *healthz) residents() int {
	n := 0
	for _, c := range h.Apps {
		n += c
	}
	if h.Sharding != nil {
		n -= h.Sharding.Leases
	}
	return n
}

var errNotReady = errors.New("not ready")

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitReady polls until every node answers /healthz, none is recovering
// and, when replicated, one ready leader is known to all. It returns the
// base URL writes go to.
func waitReady(hc *http.Client, urls []string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		leader, err := ready(hc, urls)
		if err == nil {
			return leader, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("not ready after %s: %w", timeout, err)
		}
		// Polled finely, in the kernel: set-up and recovery of a single
		// node take ~15 ms, and a coarser poll would quantize them.
		sleepUntil(time.Now().Add(200 * time.Microsecond))
	}
}

func ready(hc *http.Client, urls []string) (string, error) {
	leader := ""
	for _, u := range urls {
		var h healthz
		if err := getJSON(hc, u+"/healthz", &h); err != nil {
			return "", err
		}
		if h.Journal.Recovering {
			return "", errNotReady
		}
		if r := h.Replication; r != nil {
			if r.Leader == "" || r.LeaderURL == "" || (r.Role == "leader" && !r.Ready) {
				return "", errNotReady
			}
			if leader != "" && leader != r.LeaderURL {
				return "", errNotReady
			}
			leader = r.LeaderURL
		}
	}
	if leader == "" {
		leader = urls[0]
	}
	return leader, nil
}

func (c *cluster) urls() []string {
	var urls []string
	for _, n := range c.nodes {
		urls = append(urls, n.url())
	}
	return urls
}

func (c *cluster) logs() string {
	var b strings.Builder
	for _, n := range c.nodes {
		fmt.Fprintf(&b, "--- %s %s\n%s", n.id, strings.Join(n.args, " "), n.log.String())
	}
	return b.String()
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds is utime+stime summed over the cluster's processes.
func (c *cluster) cpuSeconds() (float64, error) {
	total := 0.0
	for _, n := range c.nodes {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name, which may hold spaces.
		rest := string(data[bytes.LastIndexByte(data, ')')+2:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc stat line %q", data)
		}
		ut, err1 := strconv.ParseFloat(f[11], 64)
		st, err2 := strconv.ParseFloat(f[12], 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("bad /proc stat times in %q", data)
		}
		total += (ut + st) / clockTick
	}
	return total, nil
}

// rssMB is the sum of the processes' peak resident sets (VmHWM).
func (c *cluster) rssMB() (float64, error) {
	total := 0.0
	for _, n := range c.nodes {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb := -1.0
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err = strconv.ParseFloat(strings.Fields(v)[0], 64)
				if err != nil {
					return 0, err
				}
			}
		}
		if kb < 0 {
			return 0, errors.New("no VmHWM in /proc status")
		}
		total += kb / 1024
	}
	return total, nil
}

// selfCPU is the benchmark process's own user+system CPU seconds.
func selfCPU() float64 { return rusageCPU(syscall.RUSAGE_SELF) }

// childrenCPU is the user+system CPU seconds of every child process
// waited for so far: the servers of clusters already killed.
func childrenCPU() float64 { return rusageCPU(syscall.RUSAGE_CHILDREN) }

func rusageCPU(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fsType names the filesystem holding dir, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
