package core

import (
	"io"
	"net/netip"

	"repro/internal/cmap"
	"repro/internal/snapshot"
)

// IPHash exposes the correlator's shared IP-key hash for cluster placement.
// Every consumer of binary IP keys — lane selection, store splits, shard
// probing, and now consistent-hash ring ownership — must use this one hash,
// which is what makes "the router's node choice" and "the worker's store
// placement" the same function of the same bytes.
func IPHash(key *[16]byte) uint32 { return ipHash(key) }

// IPHashAddr is IPHash over an address's canonical 16-byte form.
func IPHashAddr(addr netip.Addr) uint32 {
	a16 := addr.As16()
	return ipHash(&a16)
}

// WriteSnapshotOwned streams a range-filtered checkpoint to w: exactly the
// IP-NAME entries whose key hash satisfies owns, plus the complete
// NAME-CNAME family. The output is a normal snapshot file — Restore (and
// therefore a live handoff import) applies it with placement recomputed,
// so the exporting and importing nodes may run different lane/split
// layouts. CNAME chains are shipped whole because the forwarder broadcasts
// CNAME records to every node: each worker walks chains locally, so chain
// state must be complete everywhere, while IP-NAME entries are owned by
// exactly one node. A nil owns writes the full store (WriteSnapshot). Like
// WriteSnapshot this is safe on a running correlator (shard-at-a-time read
// locks; fuzzy snapshot semantics). It returns the number of entries
// written.
func (c *Correlator) WriteSnapshotOwned(w io.Writer, created int64, owns func(h uint32) bool) (int, error) {
	sw, err := snapshot.NewWriter(w, created)
	if err != nil {
		return 0, err
	}
	n, err := c.fillSnapshot(sw, owns)
	if err != nil {
		return n, err
	}
	return n, sw.Close()
}

// DropOwned removes every IP-NAME entry whose key hash satisfies owns,
// across all generations and splits, returning the number removed. It is
// the drain half of a shard handoff: after the new owner confirms the
// imported range, the old owner drops it so a later lookup misses locally
// instead of answering from a stale replica. The NAME-CNAME family is
// never dropped (it is replicated, not sharded). Safe on a running
// correlator — removal write-locks one shard at a time, and a fill racing
// the drain simply re-asserts the entry, which the next ring change
// drains again.
func (c *Correlator) DropOwned(owns func(h uint32) bool) int {
	dropped := 0
	for _, gen := range [...][]*cmap.Map[[16]byte]{c.ipName.active, c.ipName.inactive, c.ipName.long} {
		for _, m := range gen {
			if m.Empty() {
				continue
			}
			dropped += m.RemoveIf(func(k *[16]byte, _ string, _ int64) bool { return owns(ipHash(k)) })
		}
	}
	return dropped
}
