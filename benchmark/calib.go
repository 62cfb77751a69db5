package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are small slices of a shared host,
// and for minutes at a time a neighbour makes everything on them 15-45%
// slower: the server's own CPU time per admission rises by as much, with
// no steal time reported. No run of half a minute can average that away,
// so every time is reported on a calibrated clock instead. Beside the
// load, a child process of the benchmark runs a fixed kernel ten times a
// second and times each burst in thread CPU time, which the load sharing
// its CPUs does not inflate; a phase's times are then scaled by how much
// slower than calibNominal the kernel ran during that phase.
const (
	// calibIters JSON round trips of a fixed document make one burst, ~5 ms.
	calibIters = 150
	calibPause = 90 * time.Millisecond
	// calibNominal is a burst's thread CPU time on a quiet host beside the
	// running load, frozen on the commit that defined the benchmark.
	calibNominal = 4.5 * float64(time.Millisecond)
	// calibSensitivity is how much of the kernel's slowdown the servers
	// show: the slope of log(server CPU per admission, goodput, closed-phase
	// latency) against log(burst time) was 0.55-0.97 over the four workloads
	// on the defining commit (the kernel, all allocation and pointer chasing,
	// feels a busy neighbour more than the servers do), and 0.70 left the
	// smallest worst-case spread over eleven sets of ten runs.
	calibSensitivity = 0.70
)

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	// clock_gettime fails only for an unknown clock or a bad pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// calibDoc is the document a burst decodes and encodes: the shape of an
// application specification, fixed.
func calibDoc() []byte {
	type ct struct {
		Name string             `json:"name"`
		Req  map[string]float64 `json:"req"`
		Host string             `json:"host"`
	}
	var doc struct {
		Name string    `json:"name"`
		CTs  []ct      `json:"cts"`
		TTs  []float64 `json:"tts"`
	}
	doc.Name = "app-000123"
	for i := 0; i < 8; i++ {
		doc.CTs = append(doc.CTs, ct{Name: fmt.Sprintf("ct%d", i), Req: map[string]float64{"cpu": 1.5 * float64(i), "mem": 3.25}, Host: "ncp12"})
		doc.TTs = append(doc.TTs, 0.37*float64(i))
	}
	data, err := json.Marshal(doc)
	if err != nil {
		panic(err) // a fixed value of marshalable types
	}
	return data
}

// calibrate is the child process: bursts of the kernel, each reported on
// standard output as "unix-nanoseconds thread-cpu-nanoseconds", until the
// parent kills it.
func calibrate() error {
	runtime.LockOSThread()
	doc := calibDoc()
	out := bufio.NewWriter(os.Stdout)
	for {
		start := threadCPU()
		for i := 0; i < calibIters; i++ {
			var v any
			if err := json.Unmarshal(doc, &v); err != nil {
				return err
			}
			if _, err := json.Marshal(v); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "%d %d\n", time.Now().UnixNano(), threadCPU()-start)
		if err := out.Flush(); err != nil {
			return err // the parent is gone
		}
		time.Sleep(calibPause)
	}
}

// calibrator is the parent's side: the bursts reported so far.
type calibrator struct {
	cmd *exec.Cmd
	mu  sync.Mutex
	at  []time.Time
	ns  []float64
	eof chan struct{}
}

func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &calibrator{cmd: exec.Command(self, "-calibrate"), eof: make(chan struct{})}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(c.eof)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			var at int64
			var ns float64
			if _, err := fmt.Sscan(sc.Text(), &at, &ns); err == nil {
				c.mu.Lock()
				c.at, c.ns = append(c.at, time.Unix(0, at)), append(c.ns, ns)
				c.mu.Unlock()
			}
		}
	}()
	return c, nil
}

// stop kills the child and waits for it.
func (c *calibrator) stop() {
	_ = c.cmd.Process.Kill() // already exited is fine
	<-c.eof
	_ = c.cmd.Wait() // the exit status of a killed child says nothing
}

// burst is the median burst time, in nanoseconds, over [from, to]; the
// nominal time when the window holds no burst.
func (c *calibrator) burst(from, to time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var in []float64
	for i, at := range c.at {
		if !at.Before(from) && !at.After(to) {
			in = append(in, c.ns[i])
		}
	}
	if len(in) == 0 {
		return calibNominal
	}
	return median(in)
}

// slowdown is the factor by which the machine ran the servers slower than
// nominal over [from, to].
func (c *calibrator) slowdown(from, to time.Time) float64 {
	return math.Pow(c.burst(from, to)/calibNominal, calibSensitivity)
}
