package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hierctl/internal/controller"
	"hierctl/internal/core"
	"hierctl/internal/par"
)

// Snapshot format v2: an event-sourced frame log. Mid-run plant state
// (queues, in-flight requests, RNG positions) is never serialized —
// instead the log captures, per tenant, (a) the configuration, (b) the
// learned artifacts via the controller/approx persistence layers (the
// expensive offline phase), and (c) the observation log. Because runs
// are deterministic per seed, restoring = rebuild from artifacts +
// replay the log, which reconstructs bit-identical controller state:
// the next K decisions after a restore equal the original's.
//
// The container is a magic header followed by self-contained frames:
//
//	[u32 payload length][u32 crc32(payload)][gob(logFrame)]
//
// Each payload is encoded by a fresh gob encoder, so any frame decodes
// without the stream state of its predecessors. A full snapshot is a log
// of base frames only (one per tenant, sorted by id); the Journal
// appends delta frames (counts since the tenant's last frame) and remove
// frames to the same container, which is what makes an interrupted
// journal restorable by the same reader. A torn final frame — the
// signature of a crash mid-append — is tolerated on the journal recovery
// path and rejected by strict Restore; a checksum mismatch on a complete
// frame is corruption and always an error.
//
// Frame bytes are deterministic: tenant artifacts ride as key-sorted
// slices (gob map encoding is randomized), so identical fleet state
// snapshots to identical bytes — the property that lets CI diff
// regenerated snapshot sizes.
const snapshotMagic = "HPMSNAP2"

const (
	frameBase byte = iota + 1
	frameDelta
	frameRemove
)

// maxFramePayload bounds a single frame (64 MiB) so a corrupt or
// hostile length header cannot drive an arbitrary allocation.
const maxFramePayload = 64 << 20

// errTornFrame marks a frame cut short by EOF — recoverable crash
// damage, unlike a checksum failure.
var errTornFrame = errors.New("fleet: torn snapshot frame")

// artifactBlob is one serialized learning artifact. Slices sorted by Key
// replace maps so frame bytes are deterministic.
type artifactBlob struct {
	Key  string
	Data []byte
}

type tenantSnap struct {
	ID           string
	Config       TenantConfig
	Observations []float64
	// Quarantined persists the panic-quarantine latch: a restored tenant
	// that was quarantined stays quarantined (its observation log ends at
	// the last clean bin, so the replayed state is consistent — but the
	// fault that tripped it is in the config/workload, not the log, and
	// un-quarantining by restore would invite a re-panic). Decoded as
	// false from frames written before the field existed.
	Quarantined bool
	// GMaps and Trees hold the serialized learning artifacts keyed by the
	// manager's configuration fingerprints (controller.GMap.Save /
	// TreeJTilde.Save framing), sorted by key.
	GMaps []artifactBlob
	Trees []artifactBlob
	// gen carries the captured tenant's registration generation to the
	// journal's marks. Unexported, so gob never serializes it — the
	// generation is process-local.
	gen uint64
}

// logFrame is one frame of the snapshot/journal log.
type logFrame struct {
	Kind byte
	// Base carries a tenant's full state (Kind == frameBase).
	Base *tenantSnap
	// ID names the tenant of a delta or remove frame.
	ID string
	// From is the observation-log index of Counts[0]; replay appends
	// only the counts past the assembled log's length, so re-sent
	// frames (crash between write and mark update) are idempotent.
	From   int
	Counts []float64
}

// writeFrame encodes fr as one framed payload and reports bytes written.
func writeFrame(w io.Writer, fr *logFrame) (int64, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fr); err != nil {
		return 0, fmt.Errorf("fleet: encode frame: %w", err)
	}
	payload := buf.Bytes()
	if len(payload) > maxFramePayload {
		return 0, fmt.Errorf("fleet: frame payload %d exceeds %d", len(payload), maxFramePayload)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("fleet: write frame: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return 0, fmt.Errorf("fleet: write frame: %w", err)
	}
	return int64(len(hdr) + len(payload)), nil
}

// readFrame decodes the next frame. io.EOF marks a clean end at a frame
// boundary; errTornFrame marks a truncated header or payload.
func readFrame(r io.Reader) (logFrame, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return logFrame{}, io.EOF
		}
		return logFrame{}, errTornFrame
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > maxFramePayload {
		return logFrame{}, fmt.Errorf("fleet: frame payload length %d outside (0, %d]", n, maxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return logFrame{}, errTornFrame
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[4:]); got != want {
		return logFrame{}, fmt.Errorf("fleet: frame checksum %08x, want %08x", got, want)
	}
	var fr logFrame
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&fr); err != nil {
		return logFrame{}, fmt.Errorf("fleet: decode frame: %w", err)
	}
	return fr, nil
}

// foldLog is the one reader of the frame log: it streams r frame by
// frame, enforces every structural rule the restore path relies on (the
// magic header, readFrame's length bound and CRC, base frames naming a
// tenant, delta frames extending a known tenant with no gap, known kinds)
// and reports what it scanned. Each accepted frame is handed to visit
// (nil = scan only) with, for a delta, the suffix of its counts past the
// overlap with the log so far — a delta re-sent after a crash between
// frame write and mark update overlaps and contributes only what is new.
//
// A torn final frame — the signature of a crash mid-append — stops the
// scan cleanly with VerifyReport.TornTail set; whether that is tolerable
// is the caller's decision. Any other defect is corruption, returned as
// an error alongside the report of everything scanned up to that point.
func foldLog(r io.Reader, visit func(fr *logFrame, fresh []float64)) (*VerifyReport, error) {
	rep := &VerifyReport{}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != snapshotMagic {
		return rep, fmt.Errorf("fleet: not a v2 snapshot log (bad magic)")
	}
	// live is the fold's own view of each tenant: the observation-log
	// length the gap rule checks against, and the quarantine latch.
	type tenantCheck struct {
		obs  int
		quar bool
	}
	live := map[string]tenantCheck{}
	for {
		fr, err := readFrame(r)
		if err == io.EOF {
			break
		}
		if errors.Is(err, errTornFrame) {
			rep.TornTail = true
			break
		}
		if err != nil {
			return rep, err
		}
		rep.Frames++
		var fresh []float64
		switch fr.Kind {
		case frameBase:
			rep.BaseFrames++
			if fr.Base == nil || fr.Base.ID == "" {
				return rep, fmt.Errorf("fleet: frame %d: base frame without tenant", rep.Frames)
			}
			// A later base for the same id replaces the state wholesale.
			live[fr.Base.ID] = tenantCheck{obs: len(fr.Base.Observations), quar: fr.Base.Quarantined}
		case frameDelta:
			rep.DeltaFrames++
			st, ok := live[fr.ID]
			if !ok {
				return rep, fmt.Errorf("fleet: frame %d: delta frame for unknown tenant %q", rep.Frames, fr.ID)
			}
			// skip counts the frame's overlap with the log so far; a
			// positive gap means lost frames — corrupt.
			skip := st.obs - fr.From
			if skip < 0 {
				return rep, fmt.Errorf("fleet: frame %d: delta gap for tenant %q: log at %d, frame from %d", rep.Frames, fr.ID, st.obs, fr.From)
			}
			if skip < len(fr.Counts) {
				fresh = fr.Counts[skip:]
				st.obs += len(fresh)
				live[fr.ID] = st
			}
		case frameRemove:
			rep.RemoveFrames++
			delete(live, fr.ID)
		default:
			return rep, fmt.Errorf("fleet: frame %d: unknown frame kind %d", rep.Frames, fr.Kind)
		}
		if visit != nil {
			visit(&fr, fresh)
		}
	}
	rep.Tenants = len(live)
	for _, st := range live {
		rep.Observations += int64(st.obs)
		if st.quar {
			rep.Quarantined++
		}
	}
	return rep, nil
}

// assembleLog folds the frame log from r into per-tenant end states, in
// order of first appearance. tolerateTorn accepts a truncated final frame
// (journal crash recovery) instead of erroring (strict restore).
func assembleLog(r io.Reader, tolerateTorn bool) ([]tenantSnap, error) {
	states := map[string]*tenantSnap{}
	var order []string
	rep, err := foldLog(r, func(fr *logFrame, fresh []float64) {
		switch fr.Kind {
		case frameBase:
			if _, seen := states[fr.Base.ID]; !seen {
				order = append(order, fr.Base.ID)
			}
			states[fr.Base.ID] = fr.Base
		case frameDelta:
			st := states[fr.ID]
			st.Observations = append(st.Observations, fresh...)
		case frameRemove:
			delete(states, fr.ID)
		}
	})
	if err != nil {
		return nil, err
	}
	if rep.TornTail && !tolerateTorn {
		return nil, fmt.Errorf("fleet: truncated snapshot log")
	}
	out := make([]tenantSnap, 0, len(states))
	for _, id := range order {
		if st, ok := states[id]; ok {
			out = append(out, *st)
			delete(states, id)
		}
	}
	return out, nil
}

// captureAll snapshots every tenant, sorted by id. Per-tenant captures
// run on the tenants' home shards (so they serialize against in-flight
// observations) and fan out across shards concurrently; tenants removed
// mid-capture are skipped.
func (f *Fleet) captureAll() ([]tenantSnap, error) {
	ids := f.Tenants()
	snaps, err := par.MapCtx(f.ctx, len(f.shards), len(ids), func(i int) (tenantSnap, error) {
		t, err := f.tenant(ids[i])
		if err != nil {
			// Removed since the listing: skip (marked by the empty id).
			return tenantSnap{}, nil
		}
		var snap tenantSnap
		var serr error
		if err := f.exec(t, func() { snap, serr = t.snapshot() }); err != nil {
			return tenantSnap{}, err
		}
		return snap, serr
	})
	if err != nil {
		return nil, err
	}
	kept := snaps[:0]
	for _, s := range snaps {
		if s.ID != "" {
			kept = append(kept, s)
		}
	}
	return kept, nil
}

// writeBaseLog writes snaps as a complete frame log — the magic header
// and one base frame per tenant — and reports the bytes written. It is
// the one base-log writer: Fleet.Snapshot streams it to the caller's
// writer, journal compaction to the temp file it then fsyncs and swaps in.
func writeBaseLog(w io.Writer, snaps []tenantSnap) (int64, error) {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return 0, fmt.Errorf("fleet: write frame log: %w", err)
	}
	written := int64(len(snapshotMagic))
	for i := range snaps {
		n, err := writeFrame(w, &logFrame{Kind: frameBase, Base: &snaps[i]})
		if err != nil {
			return written, err
		}
		written += n
	}
	return written, nil
}

// Snapshot serializes every tenant's controller state to w as a log of
// base frames (sorted by tenant id — identical fleet state yields
// identical bytes).
func (f *Fleet) Snapshot(w io.Writer) error {
	snaps, err := f.captureAll()
	if err != nil {
		return err
	}
	if _, err := writeBaseLog(w, snaps); err != nil {
		return err
	}
	f.snapshots.Add(1)
	return nil
}

// Restore rebuilds the tenants of a frame log written by Snapshot or a
// Journal and registers them. Restores fan out across tenants; each
// rebuild loads the learned artifacts (skipping the offline learning)
// and replays the observation log to reconstruct the exact controller
// state. Strict: a truncated log is an error (use OpenJournal for
// crash-tolerant recovery).
func (f *Fleet) Restore(r io.Reader) error {
	return f.restoreLog(r, false)
}

func (f *Fleet) restoreLog(r io.Reader, tolerateTorn bool) error {
	if err := f.ctx.Err(); err != nil {
		return ErrClosed
	}
	snaps, err := assembleLog(r, tolerateTorn)
	if err != nil {
		return err
	}
	tenants, err := par.MapCtx(f.ctx, par.Workers(0), len(snaps), func(i int) (*tenant, error) {
		return restoreTenant(snaps[i])
	})
	if err != nil {
		return err
	}
	if err := f.registerAll(tenants); err != nil {
		return err
	}
	f.restores.Add(1)
	return nil
}

// registerAll registers the restored tenants all-or-nothing: an id clash
// (with a live tenant or within the snapshot) registers none of them.
func (f *Fleet) registerAll(tenants []*tenant) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := map[string]bool{}
	for _, t := range tenants {
		if _, ok := f.tenants[t.id]; ok || seen[t.id] {
			return fmt.Errorf("fleet: restore tenant %s: %w", t.id, ErrExists)
		}
		seen[t.id] = true
	}
	for _, t := range tenants {
		t.home = f.shards[f.nextShard%len(f.shards)]
		f.nextShard++
		f.nextGen++
		t.gen = f.nextGen
		f.tenants[t.id] = t
	}
	return nil
}

// snapshot captures one tenant. Runs on the tenant's home shard.
func (t *tenant) snapshot() (tenantSnap, error) {
	snap := tenantSnap{
		ID:           t.id,
		Config:       t.cfg,
		Observations: append([]float64(nil), t.observations...),
		Quarantined:  t.quarantined.Load(),
		gen:          t.gen,
	}
	art := t.mgr.Artifacts()
	for key, g := range art.GMaps {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			return snap, fmt.Errorf("fleet: tenant %s gmap: %w", t.id, err)
		}
		snap.GMaps = append(snap.GMaps, artifactBlob{Key: key, Data: buf.Bytes()})
	}
	for key, jt := range art.Trees {
		var buf bytes.Buffer
		if err := jt.Save(&buf); err != nil {
			return snap, fmt.Errorf("fleet: tenant %s tree: %w", t.id, err)
		}
		snap.Trees = append(snap.Trees, artifactBlob{Key: key, Data: buf.Bytes()})
	}
	sortBlobs(snap.GMaps)
	sortBlobs(snap.Trees)
	return snap, nil
}

func sortBlobs(blobs []artifactBlob) {
	for i := 1; i < len(blobs); i++ {
		b := blobs[i]
		j := i - 1
		for j >= 0 && blobs[j].Key > b.Key {
			blobs[j+1] = blobs[j]
			j--
		}
		blobs[j+1] = b
	}
}

// restoreTenant rebuilds one tenant from its snapshot.
func restoreTenant(s tenantSnap) (*tenant, error) {
	art := &core.ArtifactSet{
		GMaps: make(map[string]*controller.GMap, len(s.GMaps)),
		Trees: make(map[string]*controller.TreeJTilde, len(s.Trees)),
	}
	for _, b := range s.GMaps {
		g, err := controller.ReadGMap(bytes.NewReader(b.Data))
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %s gmap: %w", s.ID, err)
		}
		art.GMaps[b.Key] = g
	}
	for _, b := range s.Trees {
		jt, err := controller.ReadTreeJTilde(bytes.NewReader(b.Data))
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %s tree: %w", s.ID, err)
		}
		art.Trees[b.Key] = jt
	}
	t, err := newTenant(s.ID, s.Config, art)
	if err != nil {
		return nil, err
	}
	for _, count := range s.Observations {
		if _, err := t.observe(count); err != nil {
			return nil, fmt.Errorf("fleet: tenant %s replay: %w", s.ID, err)
		}
	}
	if s.Quarantined {
		t.quarantined.Store(true)
	}
	return t, nil
}
