package stream

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/netflow"
)

// repeatReader serves the same byte sequence forever without allocating.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// The framed read loop must not allocate per frame once the per-connection
// buffer has grown to the stream's frame size: neither the two-byte length
// header (which must not escape into the reader) nor the payload read may
// touch the heap. This is the allocation the TCP source pays per DNS
// response, millions of times per hour per resolver stream.
func TestReadFrameAllocsPerFrame(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 12000) // larger than the 4 KiB seed buffer
	var framed bytes.Buffer
	if err := WriteFrame(&framed, payload); err != nil {
		t.Fatal(err)
	}
	r := &repeatReader{data: framed.Bytes()}
	buf := make([]byte, 0, 4096)

	// Warm-up: first frame may grow the buffer past 4 KiB once.
	frame, err := ReadFrame(r, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != len(payload) {
		t.Fatalf("frame len = %d, want %d", len(frame), len(payload))
	}
	buf = frame[:0]

	allocs := testing.AllocsPerRun(100, func() {
		frame, err := ReadFrame(r, buf)
		if err != nil || len(frame) != len(payload) {
			t.Fatalf("ReadFrame: %v (len %d)", err, len(frame))
		}
		buf = frame[:0]
	})
	if allocs != 0 {
		t.Fatalf("allocs per frame = %v, want 0", allocs)
	}
}

// ReadFrame with an undersized buffer must still work (it provisions its
// own), covering callers that pass nil.
func TestReadFrameNilBuf(t *testing.T) {
	var framed bytes.Buffer
	if err := WriteFrame(&framed, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(&framed, nil)
	if err != nil || string(frame) != "hello" {
		t.Fatalf("ReadFrame = %q, %v", frame, err)
	}
	if _, err := ReadFrame(&framed, nil); err != io.EOF {
		t.Fatalf("EOF read = %v", err)
	}
}

// countIngest accepts everything and counts records without allocating —
// the harness for allocation tests of the UDP decode path.
type countIngest struct {
	records int
}

func (c *countIngest) OfferDNSBatch(r []DNSRecord) int { c.records += len(r); return len(r) }
func (c *countIngest) OfferFlowBatch(frs []netflow.FlowRecord) int {
	c.records += len(frs)
	return len(frs)
}

func v5Datagram(t testing.TB, n int) []byte {
	t.Helper()
	recs := make([]netflow.V5Record, n)
	for i := range recs {
		recs[i] = netflow.V5Record{
			SrcAddr: [4]byte{10, 0, 0, byte(i)},
			DstAddr: [4]byte{10, 1, 0, byte(i)},
			Packets: 1, Octets: uint32(100 + i), Proto: 6,
		}
	}
	pkt, err := netflow.EncodeV5(netflow.V5Header{
		UnixSecs: uint32(testTime().Unix()),
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// The v5 ingest path must reuse the per-source scratch slices: after the
// first datagram has sized them, decoding and offering a full 30-record v5
// export allocates nothing, matching the v9/IPFIX discipline of never
// allocating in the source on top of what the decoder itself does.
func TestFlowUDPSourceV5IngestAllocFree(t *testing.T) {
	pkt := v5Datagram(t, 30)
	src := NewFlowUDPSource(nil)
	in := &countIngest{}
	src.ingest(pkt, in) // warm-up sizes the scratch
	if in.records != 30 {
		t.Fatalf("warm-up records = %d, want 30", in.records)
	}
	allocs := testing.AllocsPerRun(100, func() {
		src.ingest(pkt, in)
	})
	if allocs != 0 {
		t.Fatalf("v5 ingest allocs per datagram = %v, want 0", allocs)
	}
	if st := src.Stats(); st.DecodeError != 0 {
		t.Fatalf("decode errors = %d", st.DecodeError)
	}
}

// DecodeV5Into must reuse the destination slice's capacity and return
// identical records to the allocating form.
func TestDecodeV5IntoReuse(t *testing.T) {
	pkt := v5Datagram(t, 30)
	_, fresh, err := netflow.DecodeV5(pkt)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]netflow.V5Record, 0, 30)
	_, reused, err := netflow.DecodeV5Into(pkt, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(reused) != len(fresh) {
		t.Fatalf("records = %d, want %d", len(reused), len(fresh))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, fresh[i], reused[i])
		}
	}
	if &reused[0] != &scratch[:1][0] {
		t.Fatal("DecodeV5Into did not reuse the destination backing array")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, scratch, err = netflow.DecodeV5Into(pkt, scratch[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeV5Into allocs = %v, want 0", allocs)
	}
	// Errors return the truncated destination, never partial records.
	if _, out, err := netflow.DecodeV5Into(pkt[:10], scratch); err == nil || len(out) != 0 {
		t.Fatalf("short packet: err=%v len=%d", err, len(out))
	}
}
