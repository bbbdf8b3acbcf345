package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"hierctl/internal/core"
	"hierctl/internal/par"
)

// Snapshot format v2: a frame log of checkpoints. Per tenant the log
// captures (a) its configuration and (b) its checkpoint: the tenant's state
// after its last clean bin — plant queues and clocks, energy books, latency
// histogram, random-stream positions, the store's locality history,
// estimators, each controller's previous decision — as one versioned binary
// blob (core.Session.Checkpoint), followed by the counts of any bins since.
// Restoring is creating: the tenant is built from its configuration exactly
// as Fleet.CreateTenant builds it (its learned maps and trees shared through
// the fleet's artifact store, learned once per fingerprint — the learners
// take no seed, so they are a pure function of the configuration), then
// the checkpoint is restored and those counts are stepped: the restored
// tenant's next decisions equal the original's, and a restore costs the
// tenant's state, not its uptime. A tenant halted
// mid-bin has no checkpoint; its base carries its halt report instead
// (see haltState), and it restores serving that report.
//
// The container is a magic header followed by self-contained frames:
//
//	[u32 payload length][u32 crc32(payload)][gob(frame)]
//
// Each payload is encoded by a fresh gob encoder, so any frame decodes
// without the stream state of its predecessors — and each kind is encoded
// from its own narrow struct (baseWire, deltaWire), so a frame pays for the
// type descriptors of its own fields only; the reader decodes every kind
// into their union, logFrame (gob matches fields by name). The checkpoint
// rides as one []byte field, so a base pays no descriptor per piece of
// state. A full snapshot is one checkpoint base frame per tenant (sorted by
// id); the Journal appends delta frames (counts since the tenant's last
// frame, indexed by absolute bin), remove frames, and checkpoint bases for
// new or re-based tenants to the same container, which is what makes an
// interrupted journal restorable by the same reader. A torn final frame —
// the signature of a crash mid-append — is tolerated on the journal
// recovery path and rejected by strict Restore; a checksum mismatch on a
// complete frame is corruption and always an error.
//
// Older layouts still read. Logs written before checkpoints existed hold
// frameBase frames — a tenant's configuration and every count since
// genesis: such a base is a fresh tenant plus that tail, stepped through
// the same restore path. Logs written before learned artifacts left the
// log hold frameArtifact frames, skipped once their checksum passes, and
// bases whose artifact references (or, older still, embedded artifact
// blobs) gob drops as fields no longer declared; their delta and remove
// frames may be encoded from the full logFrame type.
//
// Frame bytes are deterministic: a checkpoint carries no wall-clock value,
// so identical fleet state snapshots to identical bytes — the property
// that lets CI diff regenerated snapshot sizes.
const snapshotMagic = "HPMSNAP2"

const (
	// frameBase is the base kind of logs written before checkpoints: a
	// tenant's configuration and its whole count stream from genesis. Read
	// only.
	frameBase byte = iota + 1
	frameDelta
	frameRemove
	// frameArtifact is a learned artifact, as logs once carried them. Read
	// only: skipped once its checksum passes.
	frameArtifact
	// frameCheckpoint is the base kind the writer writes: a tenant's
	// configuration, its checkpointed state and the counts since. A kind of
	// its own, so a reader that predates checkpoints refuses the log
	// instead of restoring the tenant from genesis with the tail alone.
	frameCheckpoint
)

// maxFramePayload bounds a single frame (64 MiB) so a corrupt or
// hostile length header cannot drive an arbitrary allocation.
const maxFramePayload = 64 << 20

// maxBaseBins bounds the bin a checkpoint base stands at, far past any
// tenant's uptime, so the gap rule's arithmetic cannot overflow.
const maxBaseBins = 1 << 40

// errTornFrame marks a frame cut short by EOF — recoverable crash damage,
// unlike a checksum failure.
var errTornFrame = errors.New("fleet: torn snapshot frame")

type tenantSnap struct {
	ID     string
	Config TenantConfig
	// Checkpoint is the tenant's session state after its first Bins bins
	// (core.Session.Checkpoint). Empty in a frameBase frame, which starts
	// from genesis with Bins 0, and for a halted tenant.
	Checkpoint []byte
	Bins       int
	// Halt is a halted tenant's frozen report (gob of its haltState) in
	// place of a checkpoint: such a tenant is quarantined and steps no
	// further, so it restores to this report at Bins over a fresh session.
	// Bytes rather than a struct field, so a base pays no type descriptors
	// for what almost no tenant carries.
	Halt []byte
	// Observations are the counts of the bins after the checkpoint — every
	// count since genesis in a frameBase frame; a captured tenant has none.
	Observations []float64
	// Quarantined persists the panic-quarantine latch: a restored tenant
	// that was quarantined stays quarantined (its checkpoint is its last
	// clean bin, so the restored state is consistent — but the fault that
	// tripped it is in the config/workload, not the state, and
	// un-quarantining by restore would invite a re-panic). Decoded as
	// false from frames written before the field existed.
	Quarantined bool
	// gen carries the captured tenant's registration generation to the
	// journal's marks. Unexported, so gob never serializes it — the
	// generation is process-local.
	gen uint64
}

// logFrame is one frame of the snapshot/journal log as the reader sees
// it: the union of the per-kind wire structs below.
type logFrame struct {
	Kind byte
	// Base carries a tenant's full state (Kind == frameBase or
	// frameCheckpoint).
	Base *tenantSnap
	// ID names the tenant of a delta or remove frame.
	ID string
	// From is the absolute bin index of Counts[0]; replay appends only
	// the counts past the bins the assembled tenant already has, so
	// re-sent frames (crash between write and mark update) are
	// idempotent.
	From   int
	Counts []float64
}

// The wire structs: what each frame kind is encoded from. A fresh gob
// encoder ships the descriptors of every type reachable from the value it
// encodes, so encoding a delta from logFrame would carry ~2 KB describing
// the unused Base arm (TenantConfig → core.Config → …) in every frame.
type (
	baseWire struct {
		Kind byte
		Base *tenantSnap
	}
	deltaWire struct { // delta and remove frames
		Kind   byte
		ID     string
		From   int
		Counts []float64
	}
)

func (fr *logFrame) wire() any {
	switch fr.Kind {
	case frameBase, frameCheckpoint:
		return baseWire{Kind: fr.Kind, Base: fr.Base}
	default:
		return deltaWire{Kind: fr.Kind, ID: fr.ID, From: fr.From, Counts: fr.Counts}
	}
}

// frameWriter writes frames to w through one encode buffer, reset per
// frame: a base log is one frame per tenant, and the buffer
// grows to the largest of them once.
type frameWriter struct {
	w   io.Writer
	buf bytes.Buffer
}

// frame encodes fr, through its kind's wire struct, as one framed payload
// and reports bytes written.
func (fw *frameWriter) frame(fr *logFrame) (int64, error) {
	return fw.payload(fr.wire())
}

// payload frames the gob encoding of v: length, CRC, payload.
func (fw *frameWriter) payload(v any) (int64, error) {
	fw.buf.Reset()
	if err := gob.NewEncoder(&fw.buf).Encode(v); err != nil {
		return 0, fmt.Errorf("fleet: encode frame: %w", err)
	}
	payload := fw.buf.Bytes()
	if len(payload) > maxFramePayload {
		return 0, fmt.Errorf("fleet: frame payload %d exceeds %d", len(payload), maxFramePayload)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("fleet: write frame: %w", err)
	}
	if _, err := fw.w.Write(payload); err != nil {
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
	payload, err := readPayload(r, int(n))
	if err != nil {
		return logFrame{}, err
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

// payloadChunk is the most readPayload allocates ahead of the bytes that
// have arrived.
const payloadChunk = 64 << 10

// readPayload reads an n-byte frame payload into a buffer that grows with
// the bytes actually read — by doubling from payloadChunk — rather than
// one sized by the header: a torn tail whose header claims up to
// maxFramePayload costs what is behind the header, not the claim. A
// payload cut short is errTornFrame.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, payloadChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), len(buf)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, errTornFrame
		}
	}
	return buf, nil
}

// foldLog is the one reader of the frame log: it streams r frame by
// frame, enforces every structural rule the restore path relies on (the
// magic header, readFrame's length bound and CRC, base frames naming a
// tenant, delta frames extending a known tenant with no gap, known kinds)
// and reports what it scanned. An artifact frame of an older log is
// skipped once readFrame has checked it. Each accepted frame is handed
// to visit (nil = scan only) with, for a delta, the suffix of its counts
// past the overlap with the log so far — a delta re-sent after a crash
// between frame write and mark update overlaps and contributes only what
// is new.
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
	// live is the fold's own view of each tenant: the bins its state
	// covers, which the gap rule checks against, and the quarantine latch.
	type tenantCheck struct {
		obs          int
		quar, halted bool
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
		case frameArtifact:
			continue
		case frameBase, frameCheckpoint:
			rep.BaseFrames++
			if fr.Base == nil || fr.Base.ID == "" {
				return rep, fmt.Errorf("fleet: frame %d: base frame without tenant", rep.Frames)
			}
			if err := checkBase(fr.Kind, fr.Base); err != nil {
				return rep, fmt.Errorf("fleet: frame %d: tenant %q: %w", rep.Frames, fr.Base.ID, err)
			}
			// A later base for the same id replaces the state wholesale.
			live[fr.Base.ID] = tenantCheck{obs: fr.Base.Bins + len(fr.Base.Observations), quar: fr.Base.Quarantined, halted: len(fr.Base.Halt) > 0}
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
				if st.halted {
					return rep, fmt.Errorf("fleet: frame %d: delta past the halt of tenant %q", rep.Frames, fr.ID)
				}
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

// checkBase enforces what a base frame of kind may hold. A base starts
// from genesis (Bins 0, nothing else), from a checkpoint, or from a halt
// report; only the checkpoint kind carries either. A halted tenant is
// quarantined and has no bins past its halt.
func checkBase(kind byte, b *tenantSnap) error {
	switch {
	case b.Bins < 0 || b.Bins > maxBaseBins:
		return fmt.Errorf("base at bin %d", b.Bins)
	case kind == frameBase && (len(b.Checkpoint) > 0 || len(b.Halt) > 0):
		return fmt.Errorf("checkpoint or halt in a genesis base")
	case len(b.Checkpoint) > 0 && len(b.Halt) > 0:
		return fmt.Errorf("base with both a checkpoint and a halt")
	case len(b.Halt) > 0 && (!b.Quarantined || len(b.Observations) > 0):
		return fmt.Errorf("halt without quarantine or with bins past it")
	case len(b.Checkpoint) == 0 && len(b.Halt) == 0 && b.Bins != 0:
		return fmt.Errorf("base at bin %d with no checkpoint", b.Bins)
	}
	return nil
}

// assembleLog folds the frame log from r into the live tenants' end
// states, in order of first appearance. tolerateTorn accepts a truncated
// final frame (journal crash recovery) instead of erroring (strict
// restore).
func assembleLog(r io.Reader, tolerateTorn bool) ([]tenantSnap, error) {
	states := map[string]*tenantSnap{}
	var order []string
	rep, err := foldLog(r, func(fr *logFrame, fresh []float64) {
		switch fr.Kind {
		case frameBase, frameCheckpoint:
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
	tenants := make([]tenantSnap, 0, len(states))
	for _, id := range order {
		if st, ok := states[id]; ok {
			tenants = append(tenants, *st)
			delete(states, id)
		}
	}
	return tenants, nil
}

// captureAll snapshots every tenant, sorted by id: one sweep, so each
// capture runs on the tenant's home shard (serialized against in-flight
// observations) and shards capture concurrently; tenants removed
// mid-capture are skipped. A journal's capture (journaled) also has every
// tenant log its counts from the checkpoint on, until its journal marks
// them durable.
func (f *Fleet) captureAll(journaled bool) ([]tenantSnap, error) {
	return sweep(f, func(t *tenant) (tenantSnap, error) {
		snap, err := t.snapshot()
		if err == nil && journaled && !t.journaled {
			t.journaled = true
			t.observations.restart(snap.Bins)
		}
		return snap, err
	})
}

// writeBaseLog writes snaps as a complete frame log — the magic header,
// then one base frame per tenant — and reports the bytes written. It is
// the one base-log writer: Fleet.Snapshot streams it to the caller's
// writer, journal compaction to the temp file it then fsyncs and swaps in.
func writeBaseLog(w io.Writer, snaps []tenantSnap) (int64, error) {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return 0, fmt.Errorf("fleet: write frame log: %w", err)
	}
	written := int64(len(snapshotMagic))
	fw := &frameWriter{w: w}
	for i := range snaps {
		n, err := fw.frame(&logFrame{Kind: frameCheckpoint, Base: &snaps[i]})
		if err != nil {
			return written, err
		}
		written += n
	}
	return written, nil
}

// Snapshot serializes every tenant's state to w as a base log: one
// checkpoint base frame per tenant (sorted by tenant id — identical fleet
// state yields identical bytes).
func (f *Fleet) Snapshot(w io.Writer) error {
	snaps, err := f.captureAll(false)
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
// Journal and registers them. Each tenant is built as CreateTenant builds
// it — so a fingerprint's maps and trees are learned once and shared, with
// live tenants and with each other — then restores its checkpoint and
// steps the counts logged since; the tenants build concurrently. Strict: a
// truncated log is an error (use OpenJournal for crash-tolerant recovery).
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
	tenants := make([]*tenant, len(snaps))
	err = par.ForCtx(f.ctx, par.Workers(0), len(snaps), func(i int) error {
		t, err := restoreTenant(snaps[i], f.artifacts)
		tenants[i] = t
		return err
	})
	if err == nil {
		err = f.registerAll(tenants)
	}
	if err != nil {
		// All-or-nothing: the tenants that did build give their artifact
		// references back.
		for _, t := range tenants {
			if t != nil {
				t.mgr.Release()
			}
		}
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
		f.admit(t)
	}
	return nil
}

// snapshot captures one tenant: its configuration and checkpoint — or,
// for a halted tenant, its halt report. Runs on the tenant's home shard,
// whose scratch writer encodes the checkpoint; the snapshot keeps an
// exact-size copy.
func (t *tenant) snapshot() (tenantSnap, error) {
	snap := tenantSnap{
		ID:          t.id,
		Config:      t.cfg,
		Bins:        t.bins,
		Quarantined: t.quarantined.Load(),
		gen:         t.gen,
	}
	var err error
	if t.halt != nil {
		var buf bytes.Buffer
		err = gob.NewEncoder(&buf).Encode(t.halt)
		snap.Halt = buf.Bytes()
	} else {
		w := &t.home.ckpt
		w.Reset(w.Bytes())
		err = t.sess.Checkpoint(w)
		snap.Checkpoint = bytes.Clone(w.Bytes())
	}
	if err != nil {
		return snap, fmt.Errorf("fleet: tenant %s: %w", t.id, err)
	}
	return snap, nil
}

// restoreTenant rebuilds one tenant from its assembled state: it is
// created from its configuration as CreateTenant creates it, its
// checkpoint (if any) is restored, and the counts since are stepped. A
// checkpoint is read defensively, but a well-formed one can still hold
// state no run reaches; a panic stepping from it fails this restore like
// any other error instead of taking the process down.
func restoreTenant(s tenantSnap, store *core.ArtifactStore) (_ *tenant, err error) {
	t, err := newTenant(s.ID, s.Config, store)
	if err != nil {
		return nil, err
	}
	defer func() {
		if v := recover(); v != nil {
			t.mgr.Release()
			err = fmt.Errorf("fleet: tenant %s restore: %v", s.ID, v)
		}
	}()
	switch {
	case len(s.Halt) > 0:
		var h haltState
		if err := gob.NewDecoder(bytes.NewReader(s.Halt)).Decode(&h); err != nil {
			t.mgr.Release()
			return nil, fmt.Errorf("fleet: tenant %s halt: %w", s.ID, err)
		}
		t.halt, t.bins = &h, s.Bins
		t.mgr.Recorder().Resume(h.Total)
	case len(s.Checkpoint) > 0:
		err = t.sess.RestoreCheckpoint(s.Checkpoint)
		if bins, _, _ := t.sess.Progress(); err == nil && bins != s.Bins {
			err = fmt.Errorf("checkpoint at bin %d, base at %d", bins, s.Bins)
		}
		if err != nil {
			t.mgr.Release()
			return nil, fmt.Errorf("fleet: tenant %s checkpoint: %w", s.ID, err)
		}
		t.bins = s.Bins
	}
	for _, count := range s.Observations {
		if err := t.step(count); err != nil {
			t.mgr.Release()
			return nil, fmt.Errorf("fleet: tenant %s replay: %w", s.ID, err)
		}
	}
	if s.Quarantined {
		t.quarantined.Store(true)
	}
	// The restore is reconstruction, not work this fleet did: the
	// telemetry fold starts past it.
	t.cursor = t.mgr.Recorder().Total()
	t.operational = t.sess.Operational()
	if t.halt != nil && t.halt.Decision != nil {
		t.operational = t.halt.Decision.Operational
	}
	return t, nil
}
