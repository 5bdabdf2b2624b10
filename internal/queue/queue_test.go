package queue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// take dequeues one record, blocking like TakeBatch.
func take[T any](q *Queue[T]) (v T, ok bool) {
	var one [1]T
	buf, ok := q.TakeBatch(one[:0], 1, 0)
	if ok {
		v = buf[0]
	}
	return v, ok
}

// parkedNow reads how many consumers are parked on the queue's bell.
func (q *Queue[T]) parkedNow() int { return int(q.bell.parked.Load()) }

// waitParked returns once n consumers are parked on q: the event a test
// waits for instead of sleeping until a consumer has probably blocked.
func waitParked[T any](q *Queue[T], n int) {
	for q.parkedNow() < n {
		runtime.Gosched()
	}
}

func TestOfferTake(t *testing.T) {
	q := New[int](4)
	if !q.Offer(1) || !q.Offer(2) {
		t.Fatal("Offer failed with space available")
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
	q := New[int](2)
	q.Offer(1)
	q.Offer(2)
	if q.Offer(3) {
		t.Fatal("Offer succeeded on a full queue")
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
	q := New[int](8)
	for i := 0; i < 5; i++ {
		q.Offer(i)
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
	q := New[int](1)
	q.Offer(1)
	q.Close()
	if q.Offer(2) {
		t.Fatal("Offer after close on full queue accepted")
	}
	if st := q.Stats(); st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
}

// A single-record PutBatch on a full queue waits for a taker to free a slot
// and loses nothing.
func TestPutBlocksUntilSpace(t *testing.T) {
	q := New[int](1)
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
	q := New[int](0)
	if q.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1", q.Cap())
	}
}

func TestFill(t *testing.T) {
	q := New[int](4)
	if q.Fill() != 0 {
		t.Fatalf("empty Fill = %v", q.Fill())
	}
	q.Offer(1)
	q.Offer(2)
	if q.Fill() != 0.5 {
		t.Fatalf("Fill = %v, want 0.5", q.Fill())
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := New[int](128)
	const producers, perProducer, consumers = 8, 1000, 4
	var produced, consumed sync.WaitGroup
	var got atomic64
	consumed.Add(consumers)
	for c := 0; c < consumers; c++ {
		go func() {
			defer consumed.Done()
			buf := make([]int, 0, 7)
			for {
				var ok bool
				if buf, ok = q.TakeBatch(buf[:0], 7, 0); !ok {
					return
				}
				got.add(len(buf))
			}
		}()
	}
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
	consumed.Wait()
	st := q.Stats()
	if st.Enqueued != producers*perProducer {
		t.Fatalf("Enqueued = %d, want %d", st.Enqueued, producers*perProducer)
	}
	if got.load() != producers*perProducer || st.Dequeued != producers*perProducer {
		t.Fatalf("consumed %d (stats %d), want %d", got.load(), st.Dequeued, producers*perProducer)
	}
}

// Property: counters always satisfy Offered == Enqueued + Dropped and
// Dequeued <= Enqueued, for arbitrary offer/take interleavings.
func TestQuickCounterInvariants(t *testing.T) {
	f := func(ops []bool, capacity uint8) bool {
		q := New[int]((int(capacity) % 8) + 1)
		for i, offer := range ops {
			if offer {
				q.Offer(i)
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
	q := New[int](4)
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

func TestTakeBatchDrainsAvailable(t *testing.T) {
	q := New[int](16)
	q.PutBatch([]int{0, 1, 2, 3, 4})
	buf, ok := q.TakeBatch(nil, 3, 0)
	if !ok || len(buf) != 3 || buf[0] != 0 || buf[2] != 2 {
		t.Fatalf("batch = %v ok=%v", buf, ok)
	}
	// Fewer available than max: returns what is there without waiting.
	buf, ok = q.TakeBatch(buf[:0], 10, 0)
	if !ok || len(buf) != 2 {
		t.Fatalf("batch = %v ok=%v", buf, ok)
	}
	if st := q.Stats(); st.Dequeued != 5 {
		t.Fatalf("dequeued = %d", st.Dequeued)
	}
}

func TestTakeBatchBlocksForFirst(t *testing.T) {
	q := New[int](4)
	done := make(chan []int, 1)
	go func() {
		buf, _ := q.TakeBatch(nil, 4, 0)
		done <- buf
	}()
	waitParked(q, 1)
	q.PutBatch([]int{42})
	select {
	case buf := <-done:
		if len(buf) != 1 || buf[0] != 42 {
			t.Fatalf("batch = %v", buf)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TakeBatch never woke up")
	}
}

func TestTakeBatchWaitGathersStragglers(t *testing.T) {
	q := New[int](16)
	q.PutBatch([]int{1})
	go func() {
		waitParked(q, 1) // the consumer holds record 1 and lingers
		q.PutBatch([]int{2})
	}()
	// With a generous wait the late second record joins the batch.
	buf, ok := q.TakeBatch(nil, 2, time.Second)
	if !ok || len(buf) != 2 {
		t.Fatalf("batch = %v ok=%v", buf, ok)
	}
}

func TestTakeBatchWaitBounded(t *testing.T) {
	q := New[int](16)
	q.PutBatch([]int{1})
	start := time.Now()
	buf, ok := q.TakeBatch(nil, 8, 20*time.Millisecond)
	if !ok || len(buf) != 1 {
		t.Fatalf("batch = %v ok=%v", buf, ok)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wait unbounded: %v", elapsed)
	}
}

func TestTakeBatchClosedQueue(t *testing.T) {
	q := New[int](4)
	q.PutBatch([]int{1})
	q.Close()
	buf, ok := q.TakeBatch(nil, 4, 0)
	if !ok || len(buf) != 1 {
		t.Fatalf("drain batch = %v ok=%v", buf, ok)
	}
	if buf, ok := q.TakeBatch(buf[:0], 4, 0); ok || len(buf) != 0 {
		t.Fatalf("closed+drained returned %v ok=%v", buf, ok)
	}
}

// small atomic helper keeping the test dependency-free
type atomic64 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic64) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func BenchmarkOfferTake(b *testing.B) {
	q := New[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		// Every goroutine takes only after its own offer landed, so the
		// buffer always holds at least one record per blocked taker.
		buf := make([]int, 0, 1)
		for pb.Next() {
			if q.Offer(1) {
				buf, _ = q.TakeBatch(buf[:0], 1, 0)
			}
		}
	})
}

func TestPutBatchBlocksUntilSpace(t *testing.T) {
	q := New[int](2)
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
	q := New[int](4)
	q.Close()
	if n := q.PutBatch([]int{1, 2, 3}); n != 0 {
		t.Fatalf("PutBatch on closed = %d", n)
	}
	if st := q.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.Dropped)
	}
}

func TestPutBatchEmpty(t *testing.T) {
	q := New[int](1)
	if n := q.PutBatch(nil); n != 0 {
		t.Fatalf("PutBatch(nil) = %d", n)
	}
}

// Offers, puts and takes of assorted sizes walk the head and tail across
// the ring's wrap point many times; every record must come out once, in
// the order it went in.
func TestRingWrapKeepsFIFO(t *testing.T) {
	q := New[int](7)
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
			next += q.PutBatch(in[:min(len(in), q.Cap()-q.Len())])
		}
		var ok bool
		buf, ok = q.TakeBatch(buf[:0], round%5+1, 0)
		if !ok {
			t.Fatalf("round %d: TakeBatch on a non-empty queue reported closed", round)
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
		if buf, ok = q.TakeBatch(buf[:0], 5, 0); !ok {
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
	q := New[int](4)
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
		if buf, ok = q.TakeBatch(buf[:0], 3, 0); !ok {
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

// Close wakes every consumer parked on an empty queue, not just one.
func TestCloseWakesAllParked(t *testing.T) {
	const consumers = 4
	q := New[int](8)
	oks := make(chan bool, consumers)
	for i := 0; i < consumers; i++ {
		go func() {
			_, ok := q.TakeBatch(nil, 4, 0)
			oks <- ok
		}()
	}
	waitParked(q, consumers)
	q.Close()
	for i := 0; i < consumers; i++ {
		select {
		case ok := <-oks:
			if ok {
				t.Fatal("TakeBatch on a closed empty queue reported ok")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d parked consumers never woke on Close", consumers-i, consumers)
		}
	}
}

// One offer carrying enough for every parked consumer wakes all of them:
// the producer rings once, and each consumer that leaves records behind
// rings for the next.
func TestOfferBatchWakesAllParked(t *testing.T) {
	const consumers, max = 4, 8
	q := New[int](consumers * max)
	got := make(chan int, consumers)
	for i := 0; i < consumers; i++ {
		go func() {
			buf, _ := q.TakeBatch(nil, max, 0)
			got <- len(buf)
		}()
	}
	waitParked(q, consumers)
	if n := q.OfferBatch(make([]int, consumers*max)); n != consumers*max {
		t.Fatalf("OfferBatch = %d", n)
	}
	for i := 0; i < consumers; i++ {
		select {
		case n := <-got:
			if n != max {
				t.Fatalf("consumer took %d records, want %d", n, max)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d parked consumers never woke", consumers-i, consumers)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d records left behind", q.Len())
	}
}

// A lingering consumer keeps what arrives during the linger and returns
// the partial batch once the deadline passes, not before.
func TestTakeBatchLingerReturnsPartialAtDeadline(t *testing.T) {
	const wait = 30 * time.Millisecond
	q := New[int](16)
	q.Offer(1)
	go func() {
		waitParked(q, 1) // lingering with record 1
		q.Offer(2)       // wakes it; it takes 2 and lingers on
	}()
	start := time.Now()
	buf, ok := q.TakeBatch(nil, 8, wait)
	if elapsed := time.Since(start); elapsed < wait {
		t.Fatalf("returned after %v, before the %v deadline", elapsed, wait)
	}
	if !ok || len(buf) != 2 || buf[0] != 1 || buf[1] != 2 {
		t.Fatalf("batch = %v ok=%v; want [1 2] true", buf, ok)
	}
}

// Steady-state batch moves allocate nothing: no per-call timer when a full
// batch is waiting, no per-record channel machinery.
func TestBatchOpsAllocFree(t *testing.T) {
	q := New[int](64)
	in := make([]int, 16)
	buf := make([]int, 0, 16)
	cases := []struct {
		name string
		add  func()
	}{
		{"OfferBatch", func() { q.OfferBatch(in) }},
		{"PutBatch", func() { q.PutBatch(in) }},
		{"Offer", func() {
			for i := range in {
				q.Offer(i)
			}
		}},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			c.add()
			buf, _ = q.TakeBatch(buf[:0], len(in), time.Second)
		})
		if allocs != 0 {
			t.Errorf("%s+TakeBatch(wait>0): %.1f allocs/op, want 0", c.name, allocs)
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
	a, b := NewWithBell[int](8, bell), NewWithBell[int](8, bell)
	got := make(chan int)
	go laneConsumer(a, b, bell, got)
	for i, q := range []*Queue[int]{a, b, b, a} {
		waitParked(q, 1)
		q.Offer(i)
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
	a, b := NewWithBell[int](8, bell), NewWithBell[int](8, bell)
	got := make(chan int)
	go laneConsumer(a, b, bell, got)
	waitParked(a, 1)
	a.Close()
	waitParked(a, 1) // woke for the close, found b open, parked again
	b.Offer(7)
	if v, ok := recv(t, got); !ok || v != 7 {
		t.Fatalf("got %d,%v after one close; want 7,true", v, ok)
	}
	waitParked(b, 1)
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
	a, b := NewWithBell[int](16, bell), NewWithBell[int](16, bell)
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
				for !q.Offer(i) {
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
	a, b := NewWithBell[int](64, bell), NewWithBell[int](64, bell)
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
