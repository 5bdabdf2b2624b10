package queue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// newQ returns a queue with a bell of its own.
func newQ[T any](capacity int) *Queue[T] { return New[T](capacity, NewBell()) }

// offer offers the one record v and reports whether the queue took
// responsibility for it.
func offer[T any](q *Queue[T], v T) bool { return q.OfferBatch([]T{v}) == 1 }

// takeBatch is the test consumer, shaped like a lane worker: it polls up to
// max records onto buf and, while the queue is empty and open, parks
// through Bell.Wait. ok is false only once the queue is closed and drained.
func takeBatch[T any](q *Queue[T], buf []T, max int) ([]T, bool) {
	ready := func() bool { return q.Len() > 0 || q.Drained() }
	start := len(buf)
	for {
		if buf = q.Poll(buf, max); len(buf) > start {
			return buf, true
		}
		if q.Drained() {
			return buf, false
		}
		q.bell.Wait(ready)
	}
}

// take dequeues one record through takeBatch.
func take[T any](q *Queue[T]) (v T, ok bool) {
	var one [1]T
	buf, ok := takeBatch(q, one[:0], 1)
	if ok {
		v = buf[0]
	}
	return v, ok
}

// waitParked returns once q's consumer is parked on its bell: the event a
// test waits for instead of sleeping until the consumer has probably
// blocked.
func waitParked[T any](q *Queue[T]) {
	for !q.bell.parked.Load() {
		runtime.Gosched()
	}
}

func TestOfferTake(t *testing.T) {
	q := newQ[int](4)
	if !offer(q, 1) || !offer(q, 2) {
		t.Fatal("offer failed with space available")
	}
	v, ok := take(q)
	if !ok || v != 1 {
		t.Fatalf("take = %d,%v; want 1,true", v, ok)
	}
	v, ok = take(q)
	if !ok || v != 2 {
		t.Fatalf("take = %d,%v; want 2,true", v, ok)
	}
}

func TestOfferDropsWhenFull(t *testing.T) {
	q := newQ[int](2)
	offer(q, 1)
	offer(q, 2)
	if offer(q, 3) {
		t.Fatal("offer succeeded on a full queue")
	}
	st := q.Stats()
	if st.Enqueued != 2 || st.Dropped != 1 {
		t.Fatalf("Stats = %+v; want Enqueued 2, Dropped 1", st)
	}
	if got := st.LossRate(); got != 1.0/3.0 {
		t.Fatalf("LossRate = %v, want 1/3", got)
	}
}

func TestCloseDrains(t *testing.T) {
	q := newQ[int](8)
	for i := 0; i < 5; i++ {
		offer(q, i)
	}
	q.Close()
	q.Close() // idempotent
	for i := 0; i < 5; i++ {
		v, ok := take(q)
		if !ok || v != i {
			t.Fatalf("drain %d: got %d,%v", i, v, ok)
		}
	}
	if _, ok := take(q); ok {
		t.Fatal("take after drain returned ok")
	}
	if st := q.Stats(); st.Dequeued != 5 {
		t.Fatalf("Dequeued = %d, want 5", st.Dequeued)
	}
}

func TestOfferAfterCloseCountsDrop(t *testing.T) {
	q := newQ[int](1)
	offer(q, 1)
	q.Close()
	if offer(q, 2) {
		t.Fatal("offer after close on full queue accepted")
	}
	if st := q.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

// A single-record PutBatch on a full queue waits for a taker to free a slot
// and loses nothing.
func TestPutBlocksUntilSpace(t *testing.T) {
	q := newQ[int](1)
	q.PutBatch([]int{1})
	done := make(chan struct{})
	go func() {
		q.PutBatch([]int{2}) // blocks until the take below
		close(done)
	}()
	if v, _ := take(q); v != 1 {
		t.Fatal("unexpected head")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked PutBatch never returned after a slot was freed")
	}
	if v, _ := take(q); v != 2 {
		t.Fatal("blocked PutBatch value lost")
	}
}

func TestCapacityClamp(t *testing.T) {
	q := newQ[int](0)
	if n := q.OfferBatch([]int{1, 2}); n != 1 || q.Len() != 1 {
		t.Fatalf("capacity 0 took %d (Len %d), want the clamped 1", n, q.Len())
	}
}

// Len reports the buffer occupancy the sampler reads its fill from.
func TestFill(t *testing.T) {
	q := newQ[int](4)
	if q.Len() != 0 {
		t.Fatalf("empty Len = %d", q.Len())
	}
	offer(q, 1)
	offer(q, 2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	take(q)
	if q.Len() != 1 {
		t.Fatalf("Len after a take = %d, want 1", q.Len())
	}
}

// Many producers against the one consumer, which parks whenever it drains
// the ring: every put record comes out, and the counters agree.
func TestConcurrentProducersConsumers(t *testing.T) {
	q := newQ[int](128)
	const producers, perProducer = 8, 1000
	var produced sync.WaitGroup
	got := 0
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		buf := make([]int, 0, 7)
		for {
			var ok bool
			if buf, ok = takeBatch(q, buf[:0], 7); !ok {
				return
			}
			got += len(buf)
		}
	}()
	produced.Add(producers)
	for p := 0; p < producers; p++ {
		go func() {
			defer produced.Done()
			vs := make([]int, 5)
			// Batches of 1..5 records, so puts straddle the ring's wrap
			// point and block on a full ring in every alignment.
			for i := 0; i < perProducer; {
				k := min(i%5+1, perProducer-i)
				i += q.PutBatch(vs[:k])
			}
		}()
	}
	produced.Wait()
	q.Close()
	<-consumed
	st := q.Stats()
	if st.Enqueued != producers*perProducer {
		t.Fatalf("Enqueued = %d, want %d", st.Enqueued, producers*perProducer)
	}
	if got != producers*perProducer || st.Dequeued != producers*perProducer {
		t.Fatalf("consumed %d (stats %d), want %d", got, st.Dequeued, producers*perProducer)
	}
}

// Property: counters always satisfy Offered == Enqueued + Dropped and
// Dequeued <= Enqueued, for arbitrary offer/take interleavings.
func TestQuickCounterInvariants(t *testing.T) {
	f := func(ops []bool, capacity uint8) bool {
		q := newQ[int]((int(capacity) % 8) + 1)
		for i, op := range ops {
			if op {
				offer(q, i)
			} else if q.Len() > 0 {
				take(q)
			}
		}
		st := q.Stats()
		if st.Offered() != st.Enqueued+st.Dropped {
			return false
		}
		if st.Dequeued > st.Enqueued {
			return false
		}
		return int(st.Enqueued-st.Dequeued) == q.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOfferBatchAcceptsAndDrops(t *testing.T) {
	q := newQ[int](4)
	if got := q.OfferBatch([]int{1, 2, 3}); got != 3 {
		t.Fatalf("accepted = %d", got)
	}
	// Only one slot left: the batch is partially accepted, rest dropped.
	if got := q.OfferBatch([]int{4, 5, 6}); got != 1 {
		t.Fatalf("accepted = %d, want 1", got)
	}
	st := q.Stats()
	if st.Enqueued != 4 || st.Dropped != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := q.OfferBatch(nil); got != 0 {
		t.Fatalf("empty batch accepted %d", got)
	}
	q.Close()
	if got := q.OfferBatch([]int{7, 8}); got != 0 {
		t.Fatalf("closed queue accepted %d", got)
	}
	if st := q.Stats(); st.Dropped != 4 {
		t.Fatalf("post-close stats = %+v", st)
	}
}

func TestPollDrainsAvailable(t *testing.T) {
	q := newQ[int](16)
	if buf := q.Poll(nil, 4); len(buf) != 0 {
		t.Fatalf("Poll on an empty queue = %v", buf)
	}
	q.PutBatch([]int{0, 1, 2, 3, 4})
	buf := q.Poll(nil, 3)
	if len(buf) != 3 || buf[0] != 0 || buf[2] != 2 {
		t.Fatalf("batch = %v", buf)
	}
	// Fewer available than max: returns what is there.
	buf = q.Poll(buf[:0], 10)
	if len(buf) != 2 || buf[0] != 3 {
		t.Fatalf("batch = %v", buf)
	}
	if st := q.Stats(); st.Dequeued != 5 {
		t.Fatalf("dequeued = %d", st.Dequeued)
	}
}

// A consumer parked on an empty queue wakes for the first record put.
func TestBellWakesParkedConsumer(t *testing.T) {
	q := newQ[int](4)
	done := make(chan []int, 1)
	go func() {
		buf, _ := takeBatch(q, nil, 4)
		done <- buf
	}()
	waitParked(q)
	q.PutBatch([]int{42})
	select {
	case buf := <-done:
		if len(buf) != 1 || buf[0] != 42 {
			t.Fatalf("batch = %v", buf)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked consumer never woke up")
	}
}

// A closed queue is Drained only once its last record is taken.
func TestDrainedAfterClose(t *testing.T) {
	q := newQ[int](4)
	q.PutBatch([]int{1})
	q.Close()
	if q.Drained() {
		t.Fatal("Drained with a record still buffered")
	}
	if buf := q.Poll(nil, 4); len(buf) != 1 {
		t.Fatalf("drain batch = %v", buf)
	}
	if !q.Drained() {
		t.Fatal("closed and empty queue not Drained")
	}
	if buf, ok := takeBatch(q, nil, 4); ok || len(buf) != 0 {
		t.Fatalf("closed+drained returned %v ok=%v", buf, ok)
	}
}

func BenchmarkOfferTake(b *testing.B) {
	q := newQ[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		one := []int{1}
		buf := make([]int, 0, 1)
		for pb.Next() {
			q.OfferBatch(one)
			buf = q.Poll(buf[:0], 1)
		}
	})
}

func TestPutBatchBlocksUntilSpace(t *testing.T) {
	q := newQ[int](2)
	done := make(chan int, 1)
	go func() { done <- q.PutBatch([]int{1, 2, 3, 4}) }()
	select {
	case <-done:
		t.Fatal("PutBatch returned with full buffer")
	case <-time.After(20 * time.Millisecond):
	}
	// Drain two; the blocked producer finishes.
	for i := 0; i < 2; i++ {
		if v, ok := take(q); !ok || v != i+1 {
			t.Fatalf("take = %d, %v", v, ok)
		}
	}
	for i := 0; i < 2; i++ {
		if v, ok := take(q); !ok || v != i+3 {
			t.Fatalf("take = %d, %v", v, ok)
		}
	}
	if n := <-done; n != 4 {
		t.Fatalf("PutBatch = %d, want 4", n)
	}
	st := q.Stats()
	if st.Enqueued != 4 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutBatchAfterCloseCountsDrops(t *testing.T) {
	q := newQ[int](4)
	q.Close()
	if n := q.PutBatch([]int{1, 2, 3}); n != 0 {
		t.Fatalf("PutBatch on closed = %d", n)
	}
	if st := q.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.Dropped)
	}
}

func TestPutBatchEmpty(t *testing.T) {
	q := newQ[int](1)
	if n := q.PutBatch(nil); n != 0 {
		t.Fatalf("PutBatch(nil) = %d", n)
	}
}

// Offers, puts and takes of assorted sizes walk the head and tail across
// the ring's wrap point many times; every record must come out once, in
// the order it went in.
func TestRingWrapKeepsFIFO(t *testing.T) {
	const capacity = 7
	q := newQ[int](capacity)
	next, want := 0, 0
	buf := make([]int, 0, 5)
	for round := 0; round < 200; round++ {
		in := make([]int, round%4+1)
		for i := range in {
			in[i] = next + i
		}
		if round%2 == 0 {
			next += q.OfferBatch(in)
		} else {
			next += q.PutBatch(in[:min(len(in), capacity-q.Len())])
		}
		var ok bool
		buf, ok = takeBatch(q, buf[:0], round%5+1)
		if !ok {
			t.Fatalf("round %d: take on a non-empty queue reported closed", round)
		}
		for _, v := range buf {
			if v != want {
				t.Fatalf("round %d: took %d, want %d", round, v, want)
			}
			want++
		}
	}
	q.Close()
	for {
		var ok bool
		if buf, ok = takeBatch(q, buf[:0], 5); !ok {
			break
		}
		for _, v := range buf {
			if v != want {
				t.Fatalf("drain: took %d, want %d", v, want)
			}
			want++
		}
	}
	if st := q.Stats(); want != next || st.Dropped != 0 || st.Dequeued != st.Enqueued {
		t.Fatalf("took %d of %d accepted; stats %+v", want, next, st)
	}
}

// A PutBatch larger than the whole ring goes in chunk by chunk as a
// consumer frees space, and loses nothing.
func TestPutBatchLargerThanCapacity(t *testing.T) {
	q := newQ[int](4)
	vs := make([]int, 100)
	for i := range vs {
		vs[i] = i
	}
	done := make(chan int, 1)
	go func() { done <- q.PutBatch(vs) }()
	want := 0
	buf := make([]int, 0, 3)
	for want < len(vs) {
		var ok bool
		if buf, ok = takeBatch(q, buf[:0], 3); !ok {
			t.Fatal("queue closed under a blocked PutBatch")
		}
		for _, v := range buf {
			if v != want {
				t.Fatalf("took %d, want %d", v, want)
			}
			want++
		}
	}
	if n := <-done; n != len(vs) {
		t.Fatalf("PutBatch = %d, want %d", n, len(vs))
	}
	if st := q.Stats(); st.Enqueued != 100 || st.Dequeued != 100 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Steady-state batch moves allocate nothing: no per-record channel
// machinery, and a one-record offer on a reused slice costs no more.
func TestBatchOpsAllocFree(t *testing.T) {
	q := newQ[int](64)
	in := make([]int, 16)
	buf := make([]int, 0, 16)
	cases := []struct {
		name string
		add  func()
	}{
		{"OfferBatch", func() { q.OfferBatch(in) }},
		{"PutBatch", func() { q.PutBatch(in) }},
		{"OfferBatch1", func() {
			for i := range in {
				q.OfferBatch(in[i : i+1])
			}
		}},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			c.add()
			buf = q.Poll(buf[:0], len(in))
		})
		if allocs != 0 {
			t.Errorf("%s+Poll: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}

// laneConsumer is the one consumer of two queues sharing a bell: it polls
// both, parks through Bell.Wait only when both are empty, and returns once
// both are closed and drained. Every record it takes goes to got.
func laneConsumer(a, b *Queue[int], bell *Bell, got chan<- int) {
	ready := func() bool { return a.Len() > 0 || b.Len() > 0 || a.Drained() && b.Drained() }
	buf := make([]int, 0, 8)
	for {
		buf = a.Poll(buf[:0], 8)
		buf = b.Poll(buf, 8)
		for _, v := range buf {
			got <- v
		}
		if len(buf) == 0 {
			if a.Drained() && b.Drained() {
				close(got)
				return
			}
			bell.Wait(ready)
		}
	}
}

// recv returns the next value the consumer forwarded, failing the test if
// it never arrives: a lost wakeup shows up as this timeout.
func recv(t *testing.T, got <-chan int) (int, bool) {
	t.Helper()
	select {
	case v, ok := <-got:
		return v, ok
	case <-time.After(5 * time.Second):
		t.Fatal("parked consumer never woke")
		return 0, false
	}
}

// A consumer parked on a bell shared by two queues is woken by a producer
// on either of them.
func TestSharedBellWakeOnEitherQueue(t *testing.T) {
	bell := NewBell()
	a, b := New[int](8, bell), New[int](8, bell)
	got := make(chan int)
	go laneConsumer(a, b, bell, got)
	for i, q := range []*Queue[int]{a, b, b, a} {
		waitParked(q)
		offer(q, i)
		if v, _ := recv(t, got); v != i {
			t.Fatalf("got %d, want %d", v, i)
		}
	}
	a.Close()
	b.Close()
	if _, ok := recv(t, got); ok {
		t.Fatal("consumer kept running after both queues drained")
	}
}

// Closing one of the two queues does not end the consumer, or set it
// spinning; closing the second wakes it for good.
func TestSharedBellWakeOnCloseOfBoth(t *testing.T) {
	bell := NewBell()
	a, b := New[int](8, bell), New[int](8, bell)
	got := make(chan int)
	go laneConsumer(a, b, bell, got)
	waitParked(a)
	a.Close()
	waitParked(a) // woke for the close, found b open, parked again
	offer(b, 7)
	if v, ok := recv(t, got); !ok || v != 7 {
		t.Fatalf("got %d,%v after one close; want 7,true", v, ok)
	}
	waitParked(b)
	b.Close()
	if _, ok := recv(t, got); ok {
		t.Fatal("consumer kept running after both queues closed")
	}
}

// Many producers on both queues against one parked-and-woken consumer:
// every accepted record arrives, so no ring is ever lost.
func TestSharedBellWakeConcurrent(t *testing.T) {
	const producers, each = 4, 2000
	bell := NewBell()
	a, b := New[int](16, bell), New[int](16, bell)
	got := make(chan int, 64)
	go laneConsumer(a, b, bell, got)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		q := a
		if p%2 == 1 {
			q = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for !offer(q, i) {
					runtime.Gosched()
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		a.Close()
		b.Close()
	}()
	n := 0
	for {
		if _, ok := recv(t, got); !ok {
			break
		}
		n++
	}
	if n != producers*each {
		t.Fatalf("consumer took %d records, want %d", n, producers*each)
	}
}

// Moving batches through queues on a shared bell, and the Wait that finds
// work without parking, allocate nothing.
func TestSharedBellWakeAllocFree(t *testing.T) {
	bell := NewBell()
	a, b := New[int](64, bell), New[int](64, bell)
	ready := func() bool { return a.Len() > 0 || b.Len() > 0 }
	in := make([]int, 16)
	buf := make([]int, 0, 32)
	allocs := testing.AllocsPerRun(100, func() {
		a.OfferBatch(in)
		b.PutBatch(in)
		bell.Wait(ready)
		buf = a.Poll(buf[:0], 16)
		buf = b.Poll(buf, 16)
		bell.Ring()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs/op, want 0", allocs)
	}
	if len(buf) != 32 {
		t.Fatalf("polled %d records, want 32", len(buf))
	}
}
