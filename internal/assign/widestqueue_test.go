package assign

import (
	"container/heap"
	"math/rand"
	"testing"
)

// heapQueue drives widestQueue's ordering through container/heap, the
// reference whose pop order among equal keys widestQueue must reproduce.
type heapQueue struct{ widestQueue }

func (q heapQueue) Len() int           { return len(q.widestQueue) }
func (q heapQueue) Less(i, j int) bool { return q.less(i, j) }
func (q heapQueue) Swap(i, j int) {
	q.widestQueue[i], q.widestQueue[j] = q.widestQueue[j], q.widestQueue[i]
}
func (q *heapQueue) Push(x any) { q.widestQueue = append(q.widestQueue, x.(widestItem)) }
func (q *heapQueue) Pop() any {
	it := q.widestQueue[len(q.widestQueue)-1]
	q.widestQueue = q.widestQueue[:len(q.widestQueue)-1]
	return it
}

// TestWidestQueueMatchesContainerHeap: over random interleavings of pushes
// and pops with few distinct (phi, hops) keys, so that most items tie, the
// hand-rolled heap pops the same NCP as container/heap every time.
func TestWidestQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var got widestQueue
		want := &heapQueue{}
		for op := 0; op < 300; op++ {
			if len(got) == 0 || rng.Intn(3) > 0 {
				it := widestItem{phi: float64(rng.Intn(3)), ncp: int32(op), hops: int32(rng.Intn(3))}
				got.push(it)
				heap.Push(want, it)
				continue
			}
			if g, w := got.pop(), heap.Pop(want).(widestItem); g != w {
				t.Fatalf("trial %d, op %d: popped %+v, container/heap pops %+v", trial, op, g, w)
			}
		}
	}
}
