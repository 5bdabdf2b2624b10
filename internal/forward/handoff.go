package forward

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Handoff serves the shard-handoff admin surface for one worker node. The
// protocol moves per-key-range store state between nodes when the ring
// changes, using the snapshot codec as the wire format:
//
//	GET  /admin/handoff/export?nodes=a,b&vnodes=64&node=b[&drain=1]
//	    Build the ring from the query, stream every entry the named node
//	    owns as a snapshot file. With drain=1 the exported range is dropped
//	    locally after the export succeeds — export-then-drain, so a failed
//	    export leaves the data in place.
//	POST /admin/handoff/import
//	    Body is a snapshot stream; applied live (placement recomputed on
//	    restore, so the peer's lane/split layout is irrelevant). Returns
//	    restore stats as JSON.
//	POST /admin/handoff?nodes=a,b&vnodes=64&node=b&to=http://host:port
//	    Push mode: this node exports node's range directly into the
//	    target's /admin/handoff/import, then drains it. One round trip
//	    drives a whole rebalance step.
//
// Ordering makes the no-loss guarantee: the importing node holds the data
// before the exporting node drops it, and a record accepted during the
// window exists on at least one of the two (the old owner keeps serving
// until the drain; re-asserted entries are drained by the next ring
// change). The accepted-record invariant Offered == Enqueued + Dropped +
// Sampled holds per node throughout because handoff never touches the
// offer path.
type Handoff struct {
	corr   *core.Correlator
	client *http.Client
}

// NewHandoff wraps a correlator with the handoff admin surface.
func NewHandoff(c *core.Correlator) *Handoff {
	return &Handoff{corr: c, client: &http.Client{Timeout: 5 * time.Minute}}
}

// ringFromQuery builds (ring, owns-predicate) from nodes/vnodes/node query
// parameters shared by the export and push endpoints.
func ringFromQuery(q map[string][]string) (func(h uint32) bool, string, error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	nodesSpec := get("nodes")
	if nodesSpec == "" {
		return nil, "", fmt.Errorf("missing nodes parameter")
	}
	names := strings.Split(nodesSpec, ",")
	vnodes := 0
	if v := get("vnodes"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, "", fmt.Errorf("bad vnodes %q", v)
		}
		vnodes = n
	}
	node := get("node")
	if node == "" {
		return nil, "", fmt.Errorf("missing node parameter")
	}
	ring, err := NewRing(names, vnodes)
	if err != nil {
		return nil, "", err
	}
	owns, err := ring.Owns(node)
	if err != nil {
		return nil, "", err
	}
	return owns, node, nil
}

// Handler returns the handoff admin mux, mountable at /admin/handoff.
func (h *Handoff) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/admin/handoff/export", h.handleExport)
	mux.HandleFunc("/admin/handoff/import", h.handleImport)
	mux.HandleFunc("/admin/handoff", h.handlePush)
	return mux
}

func (h *Handoff) handleExport(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	owns, _, err := ringFromQuery(req.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	drain := req.URL.Query().Get("drain") == "1"
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := h.corr.WriteSnapshotOwned(w, time.Now().UnixNano(), owns); err != nil {
		// Headers are gone; the broken stream is the error signal — the
		// snapshot CRC catches the truncation on the import side — and
		// the drain is skipped, so nothing is lost.
		return
	}
	if drain {
		h.corr.DropOwned(owns)
	}
}

func (h *Handoff) handleImport(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	stats, err := h.corr.Restore(req.Body, time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}

// pushResult is the push-mode response body.
type pushResult struct {
	Entries int               `json:"entries"` // entries exported to the peer
	Dropped int               `json:"dropped"` // entries drained locally after
	Peer    core.RestoreStats `json:"peer"`    // the importer's restore stats
}

func (h *Handoff) handlePush(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := req.URL.Query()
	owns, _, err := ringFromQuery(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	target := q.Get("to")
	if target == "" {
		http.Error(w, "missing to parameter", http.StatusBadRequest)
		return
	}
	// Stream the owned range straight into the peer's import endpoint; the
	// pipe keeps the export memory-bounded regardless of range size.
	pr, pw := io.Pipe()
	var entries int
	go func() {
		n, err := h.corr.WriteSnapshotOwned(pw, time.Now().UnixNano(), owns)
		entries = n
		pw.CloseWithError(err)
	}()
	resp, err := h.client.Post(strings.TrimSuffix(target, "/")+"/admin/handoff/import",
		"application/octet-stream", pr)
	if err != nil {
		http.Error(w, fmt.Sprintf("push to %s: %v", target, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		http.Error(w, fmt.Sprintf("peer %s: %s: %s", target, resp.Status, body), http.StatusBadGateway)
		return
	}
	var peer core.RestoreStats
	if err := json.NewDecoder(resp.Body).Decode(&peer); err != nil {
		http.Error(w, fmt.Sprintf("peer %s: bad import response: %v", target, err), http.StatusBadGateway)
		return
	}
	// The peer confirmed the import — only now drop the range locally.
	dropped := h.corr.DropOwned(owns)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(pushResult{Entries: entries, Dropped: dropped, Peer: peer})
}
