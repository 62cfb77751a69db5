package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sparcle/internal/network"
	"sparcle/internal/obs"
	"sparcle/internal/placement"
)

// groupedRun fans apps across goroutines goroutines submitting through a
// GroupCommitter whose commit function drives s.SubmitBatch under one
// mutex (the server's locking discipline), and returns the scheduler
// plus the journal records in commit order. batchEvery > 0 makes every
// batchEvery-th submitter use SubmitMany with a pair of apps, so client
// batches compose with single submits inside the same groups. Every group
// must leave the BE pool bit for bit its rebuild from the GR list.
func groupedRun(t *testing.T, s *Scheduler, apps []App, goroutines, maxSize, batchEvery int) []*Record {
	t.Helper()
	var mu sync.Mutex
	var recs []*Record
	s.SetCommitHook(func(rec *Record) error {
		// The hook runs inside the commit function, under mu.
		recs = append(recs, roundTrip(t, rec))
		return nil
	})
	gc := NewGroupCommitter(func(batch []App, lead *obs.Span) ([]BatchResult, error) {
		mu.Lock()
		defer mu.Unlock()
		res, err := s.SubmitBatch(batch)
		if derr := poolDrift(s); derr != nil {
			return res, derr
		}
		return res, err
	}, GroupOptions{MaxSize: maxSize})

	work := make(chan []App)
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for entry := range work {
				var err error
				if len(entry) == 1 {
					_, err = gc.Submit(entry[0], nil)
				} else {
					_, err = gc.SubmitMany(entry, nil)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for i := 0; i < len(apps); {
		if batchEvery > 0 && i%batchEvery == 0 && i+2 <= len(apps) {
			work <- apps[i : i+2]
			i += 2
		} else {
			work <- apps[i : i+1]
			i++
		}
	}
	close(work)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("grouped submit: %v", err)
	}
	s.SetCommitHook(nil)
	return recs
}

// TestGroupSerialEquivalence is the tentpole property: any interleaving
// of group-committed submits yields a scheduler byte-identical to the
// same groups applied serially in commit order, and the grouped journal
// replays (Rebuild) to the same state. Group composition is whatever
// the scheduler's timing produced; the property holds for every
// composition, goroutine count and size cap.
func TestGroupSerialEquivalence(t *testing.T) {
	net := batchMeshNet(t)
	for _, tc := range []struct {
		name                string
		goroutines, maxSize int
		apps, batchEvery    int
	}{
		{"size1", 8, 1, 18, 0},
		{"size4", 8, 4, 24, 5},
		{"size64", 4, 64, 24, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			apps := batchApps(t, rand.New(rand.NewSource(31)), net, tc.apps, true)
			live := New(net)
			recs := groupedRun(t, live, apps, tc.goroutines, tc.maxSize, tc.batchEvery)

			byName := map[string]App{}
			for _, app := range apps {
				byName[app.Name] = app
			}
			serial := New(net)
			seen := 0
			for _, rec := range recs {
				if rec.Op != OpBatch {
					t.Fatalf("grouped run journaled op %q, want only %q", rec.Op, OpBatch)
				}
				group := make([]App, 0, len(rec.Batch))
				for _, e := range rec.Batch {
					app, ok := byName[e.Name]
					if !ok {
						t.Fatalf("record names unknown app %q", e.Name)
					}
					group = append(group, app)
					seen++
				}
				if _, err := serial.SubmitBatch(group); err != nil {
					t.Fatalf("serial SubmitBatch: %v", err)
				}
			}
			if seen != tc.apps {
				t.Fatalf("records cover %d apps, want %d", seen, tc.apps)
			}
			if got, want := stateJSON(t, serial), stateJSON(t, live); got != want {
				t.Fatalf("grouped state differs from the same groups applied serially\nserial:  %s\ngrouped: %s", got, want)
			}
			rebuilt, err := Rebuild(net, nil, recs)
			if err != nil {
				t.Fatalf("Rebuild: %v", err)
			}
			if got, want := stateJSON(t, rebuilt), stateJSON(t, live); got != want {
				t.Fatal("grouped journal did not replay to the live state")
			}
		})
	}
}

// TestGroupMatchesSequential compares a grouped concurrent run (groups of
// up to 8) against the same apps submitted one at a time in commit order,
// each Submit a batch of one: group composition must not change the
// admitted set or placements, and rates agree within solver tolerance
// (the one-at-a-time side solves once per app and may sit at a slightly
// different point of the same optimum — the same slack
// TestBatchMatchesSequential allows).
func TestGroupMatchesSequential(t *testing.T) {
	net := batchMeshNet(t)
	apps := batchApps(t, rand.New(rand.NewSource(41)), net, 12, false)
	grouped := New(net)
	recs := groupedRun(t, grouped, apps, 6, 8, 0)

	byName := map[string]App{}
	for _, app := range apps {
		byName[app.Name] = app
	}
	seq := New(net)
	for _, rec := range recs {
		for _, e := range rec.Batch {
			if _, err := seq.Submit(byName[e.Name]); err != nil && !errors.Is(err, ErrRejected) {
				t.Fatalf("sequential Submit %s: %v", e.Name, err)
			}
		}
	}
	compareSchedulers(t, seq, grouped, 0, 0)
}

// TestGroupLeaderFollower pins the queue mechanics deterministically: a
// leader blocked inside the commit function accumulates two waiters;
// on release the first is promoted to lead the next group and the
// second follows. Counters, the size histogram and the group.wait /
// group.lead spans must all reflect that shape.
func TestGroupLeaderFollower(t *testing.T) {
	net := batchMeshNet(t)
	apps := batchApps(t, rand.New(rand.NewSource(51)), net, 3, false)
	s := New(net)
	reg := obs.NewRegistry()
	st := obs.NewSpanTracer(obs.SpanOptions{Metrics: reg})

	var mu sync.Mutex
	inCommit := make(chan struct{})
	release := make(chan struct{})
	first := true
	gc := NewGroupCommitter(func(batch []App, lead *obs.Span) ([]BatchResult, error) {
		if first {
			first = false
			inCommit <- struct{}{}
			<-release
		}
		mu.Lock()
		defer mu.Unlock()
		return s.SubmitBatch(batch)
	}, GroupOptions{MaxSize: 8, Metrics: reg})

	var wg sync.WaitGroup
	errc := make(chan error, 3)
	submit := func(app App) {
		defer wg.Done()
		root := st.Start("test.submit")
		defer root.End()
		_, err := gc.Submit(app, root)
		errc <- err
	}
	wg.Add(1)
	go submit(apps[0])
	<-inCommit // leader is inside the gated commit with its group of one
	wg.Add(2)
	go submit(apps[1])
	go submit(apps[2])
	// Both waiters must be queued before the leader finishes, or they
	// would lead singleton groups of their own.
	for {
		gc.mu.Lock()
		n := len(gc.queue)
		gc.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	}

	stats := gc.Stats()
	if stats.Groups != 2 || stats.Follows != 1 || stats.Apps != 3 {
		t.Fatalf("stats = %+v, want 2 groups, 1 follow, 3 apps", stats)
	}
	if got := reg.Counter(metricGroupLeads).Value(); got != 2 {
		t.Fatalf("%s = %v, want 2", metricGroupLeads, got)
	}
	if got := reg.Counter(metricGroupFollows).Value(); got != 1 {
		t.Fatalf("%s = %v, want 1", metricGroupFollows, got)
	}
	if got := reg.Histogram(metricGroupSize, groupSizeBuckets).Count(); got != 2 {
		t.Fatalf("%s count = %v, want 2 observations", metricGroupSize, got)
	}
	stages := st.Stages()
	if st, ok := stages["group.lead"]; !ok || st.Count != 2 {
		t.Fatalf("group.lead stage = %+v, want 2 spans (got stages %v)", st, stages)
	}
	if st, ok := stages["group.wait"]; !ok || st.Count != 2 {
		// Both non-leader submitters park: the follower until its
		// outcome, the promoted one until its promotion.
		t.Fatalf("group.wait stage = %+v, want 2 spans (got stages %v)", st, stages)
	}
}

// TestGroupHammer mixes grouped submits with removes, repairs and
// fluctuations (each taking the same scheduler mutex the commit
// function uses), holds the BE pool bit for bit to its rebuild from the
// GR list after every one, then proves the interleaved journal replays to
// the exact live state. Run under -race this is the group-commit
// concurrency gauntlet.
func TestGroupHammer(t *testing.T) {
	net := batchMeshNet(t)
	apps := batchApps(t, rand.New(rand.NewSource(71)), net, 30, true)
	var mu sync.Mutex
	var recs []*Record
	s := New(net)
	s.SetCommitHook(func(rec *Record) error {
		recs = append(recs, roundTrip(t, rec))
		return nil
	})
	// locked runs one operation under the scheduler mutex and checks the
	// pool before releasing it.
	locked := func(op func() error) error {
		mu.Lock()
		defer mu.Unlock()
		if err := op(); err != nil {
			return err
		}
		return poolDrift(s)
	}
	gc := NewGroupCommitter(func(batch []App, lead *obs.Span) (res []BatchResult, err error) {
		derr := locked(func() error { res, err = s.SubmitBatch(batch); return nil })
		if derr != nil {
			return res, derr
		}
		return res, err
	}, GroupOptions{MaxSize: 8})

	var wg sync.WaitGroup
	errc := make(chan error, 2*len(apps))
	for i, app := range apps {
		wg.Add(1)
		go func(i int, app App) {
			defer wg.Done()
			if _, err := gc.Submit(app, nil); err != nil {
				errc <- err
				return
			}
			var err error
			switch i % 4 {
			case 0:
				err = locked(func() error {
					err := s.Remove(app.Name)
					if errors.Is(err, ErrNotFound) {
						return nil
					}
					return err
				})
			case 1:
				err = locked(func() error {
					_, err := s.Repair(app.Name)
					if errors.Is(err, ErrNotFound) || errors.Is(err, ErrRejected) {
						return nil
					}
					return err
				})
			case 2:
				err = locked(func() error {
					_, err := s.ApplyFluctuation(ElementScale{placement.NCPElement(network.NCPID(i % net.NumNCPs())): 0.9})
					return err
				})
				if err == nil {
					err = locked(func() error { _, err := s.ApplyFluctuation(nil); return err })
				}
			}
			if err != nil {
				errc <- err
			}
		}(i, app)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("hammer op: %v", err)
	}

	rebuilt, err := Rebuild(net, nil, recs)
	if err != nil {
		t.Fatalf("Rebuild after hammer: %v", err)
	}
	if got, want := stateJSON(t, rebuilt), stateJSON(t, s); got != want {
		t.Fatal("post-hammer journal did not replay to the live state")
	}
}

// TestGroupSubmitZeroAlloc pins the committer's own overhead: once the
// waiter / apps / drained pools are warm, an uncontended Submit performs
// zero heap allocations beyond whatever the commit function itself does.
func TestGroupSubmitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items randomly under the race detector")
	}
	out := make([]BatchResult, 1)
	gc := NewGroupCommitter(func(apps []App, lead *obs.Span) ([]BatchResult, error) {
		return out[:len(apps)], nil
	}, GroupOptions{})
	app := App{Name: "pin"}
	for i := 0; i < 10; i++ { // warm the pools
		if _, err := gc.Submit(app, nil); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		gc.Submit(app, nil)
	}); allocs != 0 {
		t.Fatalf("uncontended group Submit allocates %v per op, want 0", allocs)
	}
}

// TestGroupSpansDisabledZeroAlloc: with spans disabled the group stages
// cost nothing — the same discipline every other stage follows.
func TestGroupSpansDisabledZeroAlloc(t *testing.T) {
	var sp *obs.Span // disabled tracer hands out nil spans
	if allocs := testing.AllocsPerRun(100, func() {
		w := sp.Child("group.wait")
		w.End()
		l := sp.Child("group.lead")
		l.SetInt("apps", 3)
		l.End()
	}); allocs != 0 {
		t.Fatalf("disabled group spans allocate %v per op, want 0", allocs)
	}
}
