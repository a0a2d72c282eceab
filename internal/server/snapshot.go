package server

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/snapwire"
)

// This file is the snapshot-distribution surface: GET /v1/snapshot
// streams the serving engine's wire image (the snapwire format —
// sectioned, checksummed, mmap-loadable), and POST /v1/snapshot
// replaces the serving snapshot with a posted image. Together they
// make replicas cheap: one instance builds from the raw log, every
// other instance pulls the image over HTTP and serves it without ever
// seeing the log.

// DefaultMaxSnapshotBytes caps POST /v1/snapshot bodies. Snapshot
// images are far larger than API bodies, so the endpoint is exempt
// from the regular -max-body-bytes cap and carries its own.
const DefaultMaxSnapshotBytes = 1 << 30

// codeInvalidSnapshot rejects a posted image that fails snapwire
// validation (bad magic, version skew, checksum mismatch, hostile
// section table). The snapwire error detail names the failing section.
const codeInvalidSnapshot = "invalid_snapshot"

// handleSnapshotGet streams the wire image of the serving snapshot.
// The encoding is cached per snapshot (core.Engine.WireImage), so
// repeated downloads of an unchanged engine cost one encode and N
// copies.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	eng := s.engine.Load()
	img, err := eng.WireImage()
	if err != nil {
		writeAPIError(w, r, http.StatusInternalServerError,
			newAPIError(codeInternal, "encoding snapshot: "+err.Error()))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(img)))
	w.Header().Set("X-Snapshot-Generation", strconv.FormatUint(eng.Generation(), 10))
	w.Header().Set("X-Snapshot-Version", strconv.Itoa(snapwire.Version))
	_, _ = w.Write(img)
}

// handleSnapshotPost checksum-verifies the posted image, assembles the
// flat-backed snapshot, and swaps it into the serving engine under the
// same lock refreshes and learns take. The adopted snapshot gets
// the next generation, so every generation-keyed cache invalidates.
func (s *Server) handleSnapshotPost(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, DefaultMaxSnapshotBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.stats.bodyTooLarge.Add(1)
			writeAPIError(w, r, http.StatusRequestEntityTooLarge,
				newAPIError(codePayloadTooLarge, "snapshot image exceeds the size cap"))
			return
		}
		writeAPIError(w, r, http.StatusBadRequest,
			newAPIError(codeBadJSON, "reading snapshot body: "+err.Error()))
		return
	}
	l, err := snapwire.Load(body)
	if err != nil {
		writeAPIError(w, r, http.StatusBadRequest,
			newAPIError(codeInvalidSnapshot, err.Error()))
		return
	}

	s.swapMu.Lock()
	eng := s.engine.Load()
	adoptErr := eng.AdoptSnapshot(l)
	s.swapMu.Unlock()
	if adoptErr != nil {
		writeAPIError(w, r, http.StatusConflict,
			newAPIError(codeConflict, adoptErr.Error()))
		return
	}
	s.stats.swaps.Add(1)
	s.ObserveSnapshotLoad("http", time.Since(start))

	writeJSON(w, http.StatusOK, map[string]any{
		"generation": eng.Generation(),
		"sizeBytes":  l.Size,
		"version":    l.Version,
		"sections":   len(l.Sections),
		"queries":    l.Snap.Stats.NumQueries,
		"profiles":   l.Snap.Profiles != nil,
	})
}

// ObserveSnapshotLoad feeds the snapshot-load latency histogram.
// Sources: "mmap" and "heap" for file loads (cmd/pqsda records its
// -snapshot-load time here), "http" for POST /v1/snapshot adoptions.
func (s *Server) ObserveSnapshotLoad(source string, d time.Duration) {
	if h := s.tel.snapLoad[source]; h != nil {
		h.Observe(d.Seconds())
	}
}

// snapshotStatsPayload describes the wire image behind the serving
// engine for /v1/stats; loaded is false for engines built from a log.
func (s *Server) snapshotStatsPayload() map[string]any {
	info := s.engine.Load().LoadedImage()
	out := map[string]any{"loaded": info.Present}
	if info.Present {
		out["mapped"] = info.Mapped
		out["sizeBytes"] = info.Size
		out["formatVersion"] = info.Version
		sections := make(map[string]any, len(info.Sections))
		for _, sec := range info.Sections {
			sections[sec.Name()] = sec.Length
		}
		out["sections"] = sections
	}
	return out
}
