package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cmap"
	"repro/internal/frame"
	"repro/internal/snapshot"
)

// Snapshot family codes: which map family a section belongs to. These are
// wire-format values — renumbering breaks existing snapshot files.
const (
	familyIPName    = 0
	familyNameCname = 1
)

// Snapshot generation codes (wire-format values, like the families).
const (
	genActive   = 0
	genInactive = 1
	genLong     = 2
)

// RestoreStats summarizes one snapshot restore: how many sections were
// applied, how many entries they carried, and how many of those were
// dropped because their stored expiry had already passed at load time.
type RestoreStats struct {
	Sections int
	Entries  int
	Expired  int
	// Created is the snapshot file's creation stamp (UnixNano).
	Created int64
}

// WriteSnapshot streams a checkpoint of the full correlation store to w:
// both map families, all generations and splits, with the typed expiries.
// It is safe to call while the pipeline is running — the underlying
// iteration read-locks one cmap shard at a time, so a checkpoint never
// freezes a map, only one stripe of one generation at a time. The result is
// a fuzzy snapshot: entries written or overwritten mid-iteration may or may
// not be included, which is exactly the guarantee a warm-restart cache
// needs (restore tolerates both staleness and duplication; the DNS stream
// re-asserts current truth within one TTL).
func (c *Correlator) WriteSnapshot(w io.Writer, created int64) error {
	_, err := c.WriteSnapshotOwned(w, created, nil)
	return err
}

// Checkpoint writes a snapshot atomically to path (temp file + rename): a
// crash mid-write leaves the previous checkpoint intact.
func (c *Correlator) Checkpoint(path string) error {
	return snapshot.WriteFile(path, time.Now().UnixNano(), func(w *snapshot.Writer) error {
		_, err := c.fillSnapshot(w, nil)
		return err
	})
}

// fillSnapshot writes both store families, IP-NAME filtered by owns, and
// returns the number of entries written. IP-NAME sections carry
// SectionFlagBinaryKeys (16-byte address keys); NAME-CNAME sections never
// do.
func (c *Correlator) fillSnapshot(w *snapshot.Writer, owns func(h uint32) bool) (int, error) {
	n, err := c.ipName.writeSections(w, familyIPName, snapshot.SectionFlagBinaryKeys, owns)
	if err != nil {
		return n, err
	}
	m, err := c.nameCname.writeSections(w, familyNameCname, 0, nil)
	return n + m, err
}

// writeSections emits one section run per (generation, split) map of the
// store and returns the number of entries written. It iterates shard by
// shard through cmap.AppendShard, so only one shard stripe is read-locked
// at a time. A non-nil owns keeps only the keys with owns(keyHash(key))
// true (AppendShard items carry a zero Hash).
func (s *store[K]) writeSections(w *snapshot.Writer, family, flags uint8, owns func(h uint32) bool) (int, error) {
	gens := [...]struct {
		code uint8
		maps []*cmap.Map[K]
	}{
		{genActive, s.active},
		{genInactive, s.inactive},
		{genLong, s.long},
	}
	written := 0
	var items []cmap.Item[K]
	var key []byte
	for _, gen := range gens {
		for split, m := range gen.maps {
			if m.Empty() {
				continue
			}
			if err := w.Begin(family, gen.code, flags, uint32(split)); err != nil {
				return written, err
			}
			for sh := 0; sh < m.ShardCount(); sh++ {
				items = m.AppendShard(sh, items[:0])
				for i := range items {
					if owns != nil && !owns(keyHash(&items[i].Key)) {
						continue
					}
					key = appendKey(key[:0], &items[i].Key)
					if err := w.Entry(key, items[i].Value, items[i].Exp); err != nil {
						return written, err
					}
					written++
				}
			}
		}
	}
	return written, nil
}

// appendKey appends k's wire form to dst: an address's 16 bytes or a
// name's bytes.
func appendKey[K cmap.Key](dst []byte, k *K) []byte {
	switch k := any(k).(type) {
	case *[16]byte:
		return append(dst, k[:]...)
	case *string:
		return append(dst, *k...)
	}
	panic("core: key type outside cmap.Key")
}

// Restore loads a snapshot stream into the correlator's stores, fanning the
// CRC-validated sections out across one worker per lane. Entries whose
// stored expiry has already passed at now are dropped at load; every kept
// name string is re-interned through the owning lane's interner, so a
// restored store shares one backing string per distinct service name exactly
// as a live-filled store does. Split and shard placement are recomputed from
// the key hash, never trusted from the file, so a snapshot taken under one
// NumSplit/Lanes layout restores correctly into any other.
//
// Restore is also the receive half of a shard handoff: every underlying
// operation (cmap inserts, interning, split placement) is concurrency-safe,
// so importing into a running correlator only ever adds warmth. On a
// corrupt or truncated file it returns an error wrapping snapshot.ErrCorrupt
// with the stats of everything applied so far — sections are validated
// before they are handed to workers, so a partial restore is simply a less
// warm cache, never a wrong one.
func (c *Correlator) Restore(r io.Reader, now time.Time) (RestoreStats, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return RestoreStats{}, err
	}
	st := RestoreStats{Created: sr.Created()}
	nowNs := now.UnixNano()

	workers := len(c.lanes)
	secCh := make(chan *snapshot.Section, workers)
	var wg sync.WaitGroup
	var applied, expired atomic.Int64
	var applyErr atomic.Pointer[error]
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sec := range secCh {
				a, x, err := c.applySection(sec, nowNs)
				applied.Add(int64(a))
				expired.Add(int64(x))
				if err != nil {
					applyErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	var readErr error
	for {
		sec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		st.Sections++
		secCh <- sec
	}
	close(secCh)
	wg.Wait()
	st.Entries = int(applied.Load())
	st.Expired = int(expired.Load())
	if perr := applyErr.Load(); perr != nil {
		return st, *perr
	}
	return st, readErr
}

// applySection inserts one section's entries, skipping expired ones.
// Unknown families and generations (a future format writing cells this
// version does not know) are skipped whole, not errors: the snapshot header
// already gated on the format version, and dropping an unknown cell only
// costs warmth. So is a section whose key space its family never uses — an
// IP-NAME section without SectionFlagBinaryKeys or a NAME-CNAME section
// with it: no writer puts entries there, and no lookup could reach them.
func (c *Correlator) applySection(sec *snapshot.Section, nowNs int64) (applied, expired int, err error) {
	if sec.Gen > genLong {
		return 0, 0, nil
	}
	switch {
	case sec.Family == familyIPName && sec.BinaryKeys():
		return restoreSection(c, c.ipName, sec, nowNs)
	case sec.Family == familyNameCname && !sec.BinaryKeys():
		return restoreSection(c, c.nameCname, sec, nowNs)
	}
	return 0, 0, nil
}

// restoreSection inserts a section's unexpired entries into st, interning
// names through the lane that owns the key's hash. An address key that is
// not 16 bytes long is skipped.
func restoreSection[K cmap.Key](c *Correlator, st *store[K], sec *snapshot.Section, nowNs int64) (applied, expired int, err error) {
	err = sec.ForEach(func(key, value []byte, exp int64) error {
		if exp != 0 && nowNs > exp {
			expired++
			return nil
		}
		var k K
		var h uint32
		var in *interner
		switch p := any(&k).(type) {
		case *[16]byte:
			if len(key) != 16 {
				return nil
			}
			*p = [16]byte(key)
			h = ipHash(p)
			in = c.lanes[c.laneForHash(h)].in
		case *string:
			name := string(key)
			h = nameHash(name)
			in = c.lanes[c.laneForHash(h)].in
			*p = in.intern(name)
		}
		st.insertRestored(sec.Gen, h, &k, in.intern(string(value)), exp)
		applied++
		return nil
	})
	return applied, expired, err
}

// insertRestored places one restored entry into the generation it was
// snapshotted from, at the split its hash labels under the current layout.
// A long-generation entry restored into a configuration without long maps
// enabled still lands in long — get probes all three generations
// unconditionally, so it stays reachable until the next clear-up.
func (s *store[K]) insertRestored(gen uint8, h uint32, key *K, value string, exp int64) {
	maps := s.active
	switch gen {
	case genInactive:
		maps = s.inactive
	case genLong:
		maps = s.long
	}
	maps[s.splitFor(h)].Set(h, key, value, exp)
}

// restoreFromFile is New's restore-on-boot hook: a missing file is a normal
// cold start, anything else records the restore outcome for RestoreResult
// and the stats counters. Errors fall back to running with whatever state
// was applied (validated sections only) — a correlator must come up even
// when its checkpoint was truncated by a crash. Temporary files a killed
// checkpoint left are removed first, best effort: they only cost disk.
func (c *Correlator) restoreFromFile(path string) {
	frame.RemoveTemps(filepath.Dir(path), func(base string) bool { return base == filepath.Base(path) })
	f, err := os.Open(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			c.restoreErr = fmt.Errorf("core: restore %s: %w", path, err)
		}
		return
	}
	defer f.Close()
	st, err := c.Restore(f, time.Now())
	c.restoreStats = st
	if err != nil {
		c.restoreErr = fmt.Errorf("core: restore %s: %w", path, err)
	}
}

// RestoreResult reports the outcome of New's restore-on-boot: the zero
// RestoreStats and a nil error mean no snapshot was found (cold start). A
// non-nil error with non-zero stats is a partial restore — the correlator
// is running on the validated prefix of a damaged checkpoint.
func (c *Correlator) RestoreResult() (RestoreStats, error) {
	return c.restoreStats, c.restoreErr
}
