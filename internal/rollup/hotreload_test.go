package rollup

import (
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dbl"
)

// TestSinkHotReloadUnderLoad swaps the BGP table and the blocklist while
// concurrent writers hammer the sink, then checks the two halves of the
// hot-reload contract: zero dropped lookups (every observed byte is
// attributed under exactly one key — totals conserve) and post-swap batches
// attributed against the new table and list.
func TestSinkHotReloadUnderLoad(t *testing.T) {
	mkTable := func(asn uint32) *bgp.Table {
		tb := bgp.NewTable()
		if err := tb.Insert(netip.MustParsePrefix("198.51.100.0/24"), asn); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	mkList := func(c dbl.Category) *dbl.List {
		l := dbl.NewList()
		l.Add("svc.example", c)
		return l
	}

	hotTable := bgp.NewHot(mkTable(64500))
	hotList := dbl.NewHot(mkList(dbl.Spam))
	eng := New(time.Minute, 4)
	sink := NewSink(eng, WithHotTable(hotTable), WithHotBlocklist(hotList))

	const writers = 4
	const batches = 200
	const perBatch = 16
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer wg.Done()
			batch := make([]core.CorrelatedFlow, perBatch)
			for b := 0; b < batches; b++ {
				for i := range batch {
					batch[i] = testFlow(t0, "198.51.100.7", 10, 1, "svc.example")
				}
				if err := sink.WriteBatch(context.Background(), batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Reload concurrently with the writers: new table generation + rotated
	// category each swap, as a SIGHUP storm would.
	cats := []dbl.Category{dbl.Botnet, dbl.Malware, dbl.Phish, dbl.Spam}
	for gen := 0; gen < 100; gen++ {
		hotTable.Swap(mkTable(64500 + uint32(gen%2)))
		hotList.Swap(mkList(cats[gen%len(cats)]))
	}
	wg.Wait()

	// Conservation: whichever table generation each batch saw, every flow
	// must land under some (service, asn, category) key.
	windows := eng.SealAll()
	var gotBytes, gotFlows uint64
	for _, w := range windows {
		for _, r := range w.Rows {
			if r.Key.Service != "svc.example" {
				t.Fatalf("unexpected service %q", r.Key.Service)
			}
			if r.Key.ASN != 64500 && r.Key.ASN != 64501 {
				t.Fatalf("ASN %d is from no table generation", r.Key.ASN)
			}
			gotBytes += r.Bytes
			gotFlows += r.Flows
		}
	}
	const wantFlows = writers * batches * perBatch
	if gotFlows != wantFlows || gotBytes != wantFlows*10 {
		t.Fatalf("observed %d flows / %d bytes; want %d / %d — a swap dropped lookups",
			gotFlows, gotBytes, wantFlows, wantFlows*10)
	}

	// Post-swap determinism: land on a known final generation and verify a
	// fresh batch is attributed against exactly that table and list.
	hotTable.Swap(mkTable(65000))
	hotList.Swap(mkList(dbl.Botnet))
	if err := sink.WriteBatch(context.Background(), []core.CorrelatedFlow{
		testFlow(t0, "198.51.100.9", 77, 7, "svc.example"),
	}); err != nil {
		t.Fatal(err)
	}
	final := eng.SealAll()
	if len(final) != 1 || len(final[0].Rows) != 1 {
		t.Fatalf("final windows = %+v", final)
	}
	r := final[0].Rows[0]
	if r.Key.ASN != 65000 || r.Key.Category != dbl.Botnet || r.Bytes != 77 {
		t.Fatalf("post-swap attribution = %+v; want ASN 65000, botnet, 77 bytes", r)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}
