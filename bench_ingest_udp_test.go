package repro

import (
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cmap"
	"repro/internal/netflow"
	"repro/internal/stream"
)

// benchFlowCounter accepts everything and counts flow records; the sink for
// ingest throughput benchmarks.
type benchFlowCounter struct {
	n atomic.Uint64
}

func (c *benchFlowCounter) OfferDNSBatch(r []stream.DNSRecord) int { return len(r) }
func (c *benchFlowCounter) OfferFlowBatch(frs []netflow.FlowRecord) int {
	c.n.Add(uint64(len(frs)))
	return len(frs)
}

// benchV5Datagram builds one v5 export datagram with n records. Small
// exports (a few records per datagram) put the per-datagram syscall cost in
// the numerator, which is exactly what batched reads amortize.
func benchV5Datagram(b *testing.B, n int) []byte {
	b.Helper()
	recs := make([]netflow.V5Record, n)
	for i := range recs {
		recs[i] = netflow.V5Record{
			SrcAddr: [4]byte{10, 0, 0, byte(i)},
			DstAddr: [4]byte{10, 1, 0, byte(i)},
			Packets: 1, Octets: uint32(100 + i), Proto: 6,
		}
	}
	pkt, err := netflow.EncodeV5(netflow.V5Header{UnixSecs: 1653475200}, recs)
	if err != nil {
		b.Fatal(err)
	}
	return pkt
}

// BenchmarkUDPIngest measures flow ingest over a real loopback socket, one
// iteration per record delivered to the ingest façade. Each burst is
// pre-loaded into the kernel receive buffer while the source is idle, then
// only the drain is timed: that isolates the receive path (syscalls, decode,
// offer) from the exporter's send cost, which on a small machine would
// otherwise share the CPU with the receiver and mask the difference between
// the modes. The batch mode drains in recvmmsg rings (falling back
// transparently where unsupported); single forces the one-read-per-datagram
// loop the source used before batching. The ratio between the two is the
// syscall amortization batched reads buy at line rate.
//
//	go test -bench=BenchmarkUDPIngest -benchmem .
func BenchmarkUDPIngest(b *testing.B) {
	const datagrams = 500
	// One record per datagram: the low-rate-exporter worst case, where the
	// per-datagram read syscall dominates and batching pays the most.
	const recsPerDatagram = 1
	pkt := benchV5Datagram(b, recsPerDatagram)

	run := func(b *testing.B, batchSize int) {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		if uc, ok := pc.(*net.UDPConn); ok {
			// The kernel buffer must hold a whole burst without loss, but no
			// more: a compact queue keeps the buffered skbs cache-resident, so
			// the timed drain measures the read path rather than memory stalls.
			uc.SetReadBuffer(1 << 20)
		}
		src := stream.NewFlowUDPSource(pc)
		src.BatchSize = batchSize
		sink := &benchFlowCounter{}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		runDone := make(chan struct{})
		go func() {
			defer close(runDone)
			src.Run(ctx, sink)
		}()
		conn, err := net.Dial("udp", pc.LocalAddr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()

		// Yield-wait rather than sleep-wait: on a small machine a sleeping
		// poller's timer wakeups steal cycles from the drain being measured,
		// while Gosched just hands the CPU to the source until it parks.
		waitFor := func(target uint64) {
			deadline := time.Now().Add(10 * time.Second)
			for spins := 0; sink.n.Load() < target; spins++ {
				if spins%1024 == 0 && time.Now().After(deadline) {
					b.Fatalf("drain stalled: %d/%d records (kernel dropped part of the burst?)",
						sink.n.Load(), target)
				}
				runtime.Gosched()
			}
		}
		// Warm-up: the first datagram makes the source allocate its read
		// buffers (in batch mode, the recvmmsg ring) and park in the poller,
		// so none of that one-time setup lands in the timed region.
		if _, err := conn.Write(pkt); err != nil {
			b.Fatal(err)
		}
		waitFor(recsPerDatagram)

		b.ReportAllocs()
		b.ResetTimer()
		var done uint64
		for done < uint64(b.N) {
			b.StopTimer()
			start := sink.n.Load()
			for i := 0; i < datagrams; i++ {
				if _, err := conn.Write(pkt); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			waitFor(start + datagrams*recsPerDatagram)
			done += datagrams * recsPerDatagram
		}
		b.StopTimer()
		cancel()
		<-runDone
	}
	b.Run("batch", func(b *testing.B) { run(b, 0) }) // stream.DefaultIngestBatch ring
	b.Run("single", func(b *testing.B) { run(b, 1) })
}

// benchTableKeys builds n distinct 16-byte address keys with their shard
// hashes, the key shape of the correlation store's IP-NAME family.
func benchTableKeys(n int) ([][16]byte, []uint32) {
	keys := make([][16]byte, n)
	hashes := make([]uint32, n)
	for i := range keys {
		binary.BigEndian.PutUint64(keys[i][:8], uint64(i)*0x9e3779b97f4a7c15)
		binary.BigEndian.PutUint64(keys[i][8:], uint64(i))
		hashes[i] = cmap.Hash(string(keys[i][:]))
	}
	return keys, hashes
}

// BenchmarkCmapTable measures the open-addressed address-keyed table under the
// correlation store's access mix: steady-state overwrites, hit and miss
// lookups, and the expiry sweep that reclaims dead entries without
// tombstones. Set/get must stay allocation-free.
//
//	go test -bench=BenchmarkCmapTable -benchmem .
func BenchmarkCmapTable(b *testing.B) {
	const n = 1 << 16
	keys, hashes := benchTableKeys(n)

	b.Run("set", func(b *testing.B) {
		m := cmap.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (n - 1)
			m.Set(hashes[j], &keys[j], "v", int64(i))
		}
	})
	b.Run("get-hit", func(b *testing.B) {
		m := cmap.New()
		for j := range keys {
			m.Set(hashes[j], &keys[j], "v", 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i & (n - 1)
			if _, _, ok := m.Get(hashes[j], &keys[j]); !ok {
				b.Fatal("miss on present key")
			}
		}
	})
	b.Run("get-miss", func(b *testing.B) {
		m := cmap.New()
		for j := 0; j < n/2; j++ {
			m.Set(hashes[j], &keys[j], "v", 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := n/2 + i&(n/2-1)
			if _, _, ok := m.Get(hashes[j], &keys[j]); ok {
				b.Fatal("hit on absent key")
			}
		}
	})
	b.Run("expire-sweep", func(b *testing.B) {
		// Each iteration sweeps half of a full store: the backward-shift
		// delete path under a realistic mixed live/dead population.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := cmap.New()
			for j := range keys {
				m.Set(hashes[j], &keys[j], "v", int64(j%2)+1)
			}
			b.StartTimer()
			if removed := m.RemoveIfExpired(2); removed != n/2 {
				b.Fatalf("removed %d, want %d", removed, n/2)
			}
		}
	})
}
