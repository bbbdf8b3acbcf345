package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"hierctl/internal/controller"
	"hierctl/internal/core"
	"hierctl/internal/par"
)

// Snapshot format v2: an event-sourced frame log. Mid-run plant state
// (queues, in-flight requests, RNG positions) is never serialized —
// instead the log captures (a) each distinct learned artifact once, via
// the controller/approx persistence layers (the expensive offline phase),
// and per tenant (b) the configuration with references to its artifacts
// and (c) the observation log. Because runs are deterministic per seed,
// restoring = rebuild from artifacts + replay the log, which reconstructs
// bit-identical controller state: the next K decisions after a restore
// equal the original's.
//
// The container is a magic header followed by self-contained frames:
//
//	[u32 payload length][u32 crc32(payload)][gob(frame)]
//
// Each payload is encoded by a fresh gob encoder, so any frame decodes
// without the stream state of its predecessors — and each kind is encoded
// from its own narrow struct (baseWire, deltaWire, artifactWire), so a
// frame pays for the type descriptors of its own fields only; the reader
// decodes every kind into their union, logFrame (gob matches fields by
// name). A full snapshot is a log of the artifact frames its tenants
// reference followed by one base frame per tenant (sorted by id); the
// Journal appends delta frames (counts since the tenant's last frame),
// remove frames, and base frames for new tenants — preceded by the
// artifact frames the log does not hold yet — to the same container,
// which is what makes an interrupted journal restorable by the same
// reader. A torn final frame — the signature of a crash mid-append — is
// tolerated on the journal recovery path and rejected by strict Restore; a
// checksum mismatch on a complete frame is corruption and always an error.
//
// Logs written before artifact frames existed embed each tenant's
// artifact blobs in its base frame (artifactRef.Data) and encode
// delta/remove frames from the full logFrame type; both remain readable.
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
	frameArtifact
)

// Artifact kinds carried by artifact frames.
const (
	artifactGMap byte = iota + 1
	artifactTree
)

// maxFramePayload bounds a single frame (64 MiB) so a corrupt or
// hostile length header cannot drive an arbitrary allocation.
const maxFramePayload = 64 << 20

var (
	// errTornFrame marks a frame cut short by EOF — recoverable crash
	// damage, unlike a checksum failure.
	errTornFrame = errors.New("fleet: torn snapshot frame")
	// errArtifactDigest marks an artifact frame whose data does not hash to
	// the digest it is stored under.
	errArtifactDigest = errors.New("fleet: artifact data does not match its digest")
	// errArtifactMissing marks a base frame referencing an artifact that no
	// earlier artifact frame of that kind put in the log.
	errArtifactMissing = errors.New("fleet: base frame references an artifact not in the log")
)

// digest is an artifact's content address: the SHA-256 of its serialized
// form.
type digest = [sha256.Size]byte

func asDigest(b []byte) (d digest, ok bool) {
	if len(b) != len(d) {
		return d, false
	}
	copy(d[:], b)
	return d, true
}

// artifactRef names one learning artifact of a tenant's base frame.
type artifactRef struct {
	// Key is the manager's configuration fingerprint for the artifact (a
	// hardware key for a map g, a module composition key for a tree J̃).
	Key string
	// Digest is the content address of the artifact frame that holds the
	// serialized artifact (controller.GMap.Save / TreeJTilde.Save framing).
	Digest []byte
	// Data is the serialized artifact embedded in the base frame itself —
	// the layout of logs written before artifact frames existed. Read
	// only: the fold moves it into the log's artifact table.
	Data []byte
	// saved is the write side's handle on the artifact's memoized
	// serialized form. Unexported, so gob never serializes it.
	saved *controller.Saved
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
	// GMaps and Trees reference the tenant's learning artifacts, sorted by
	// key. The serialized artifacts themselves live in artifact frames,
	// once per distinct content, ahead of the first base that needs them.
	GMaps []artifactRef
	Trees []artifactRef
	// gen carries the captured tenant's registration generation to the
	// journal's marks. Unexported, so gob never serializes it — the
	// generation is process-local.
	gen uint64
}

// logFrame is one frame of the snapshot/journal log as the reader sees
// it: the union of the per-kind wire structs below.
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
	// Digest, Artifact and Data carry one serialized learning artifact
	// (Kind == frameArtifact): its content address, its kind, its bytes.
	Digest   []byte
	Artifact byte
	Data     []byte
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
	artifactWire struct {
		Kind     byte
		Digest   []byte
		Artifact byte
		Data     []byte
	}
)

func (fr *logFrame) wire() any {
	switch fr.Kind {
	case frameBase:
		return baseWire{Kind: fr.Kind, Base: fr.Base}
	case frameArtifact:
		return artifactWire{Kind: fr.Kind, Digest: fr.Digest, Artifact: fr.Artifact, Data: fr.Data}
	default:
		return deltaWire{Kind: fr.Kind, ID: fr.ID, From: fr.From, Counts: fr.Counts}
	}
}

// frameWriter writes frames to w through one encode buffer, reset per
// frame: a base log is one frame per tenant and artifact, and the buffer
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
// magic header, readFrame's length bound and CRC, artifact data hashing to
// its digest, base frames naming a tenant and referencing only artifacts
// already in the log, delta frames extending a known tenant with no gap,
// known kinds) and reports what it scanned. Each accepted frame is handed
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
	// live is the fold's own view of each tenant: the observation-log
	// length the gap rule checks against, and the quarantine latch.
	type tenantCheck struct {
		obs  int
		quar bool
	}
	live := map[string]tenantCheck{}
	// artifacts maps the content address of every artifact frame seen so
	// far to its kind — what a later base frame may reference.
	artifacts := map[digest]byte{}
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
			rep.ArtifactFrames++
			// A repeated artifact frame is idempotent: same digest, same
			// verified bytes.
			d, ok := asDigest(fr.Digest)
			if !ok || sha256.Sum256(fr.Data) != d {
				return rep, fmt.Errorf("fleet: frame %d: %w", rep.Frames, errArtifactDigest)
			}
			artifacts[d] = fr.Artifact
		case frameBase:
			rep.BaseFrames++
			if fr.Base == nil || fr.Base.ID == "" {
				return rep, fmt.Errorf("fleet: frame %d: base frame without tenant", rep.Frames)
			}
			ref := unresolved(fr.Base.GMaps, artifactGMap, artifacts)
			if ref == nil {
				ref = unresolved(fr.Base.Trees, artifactTree, artifacts)
			}
			if ref != nil {
				return rep, fmt.Errorf("fleet: frame %d: tenant %q artifact %x: %w", rep.Frames, fr.Base.ID, ref.Digest, errArtifactMissing)
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

// unresolved returns the first of refs that neither embeds its blob (the
// pre-artifact-frame layout) nor names an artifact frame of the given
// kind already in the log; nil when every reference resolves.
func unresolved(refs []artifactRef, kind byte, artifacts map[digest]byte) *artifactRef {
	for i := range refs {
		if len(refs[i].Digest) == 0 && len(refs[i].Data) > 0 {
			continue
		}
		if d, ok := asDigest(refs[i].Digest); !ok || artifacts[d] != kind {
			return &refs[i]
		}
	}
	return nil
}

// assembledLog is a frame log folded to its end state.
type assembledLog struct {
	// tenants are the live tenants' end states, in order of first
	// appearance; every artifact reference carries a Digest into blobs.
	tenants []tenantSnap
	// blobs holds each distinct serialized artifact the log carries, by
	// content address — whether it arrived in an artifact frame or embedded
	// in a base frame (hashed here, so ten thousand tenants embedding the
	// same blob keep one copy and decode it once).
	blobs map[digest][]byte
}

// assembleLog folds the frame log from r into per-tenant end states.
// tolerateTorn accepts a truncated final frame (journal crash recovery)
// instead of erroring (strict restore).
func assembleLog(r io.Reader, tolerateTorn bool) (*assembledLog, error) {
	states := map[string]*tenantSnap{}
	blobs := map[digest][]byte{}
	var order []string
	intern := func(refs []artifactRef) {
		for i := range refs {
			if len(refs[i].Digest) != 0 {
				continue
			}
			d := sha256.Sum256(refs[i].Data)
			if _, ok := blobs[d]; !ok {
				blobs[d] = refs[i].Data
			}
			refs[i].Digest, refs[i].Data = d[:], nil
		}
	}
	rep, err := foldLog(r, func(fr *logFrame, fresh []float64) {
		switch fr.Kind {
		case frameArtifact:
			d, _ := asDigest(fr.Digest)
			blobs[d] = fr.Data
		case frameBase:
			if _, seen := states[fr.Base.ID]; !seen {
				order = append(order, fr.Base.ID)
			}
			intern(fr.Base.GMaps)
			intern(fr.Base.Trees)
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
	out := &assembledLog{tenants: make([]tenantSnap, 0, len(states)), blobs: blobs}
	for _, id := range order {
		if st, ok := states[id]; ok {
			out.tenants = append(out.tenants, *st)
			delete(states, id)
		}
	}
	return out, nil
}

// captureAll snapshots every tenant, sorted by id: one sweep, so each
// capture runs on the tenant's home shard (serialized against in-flight
// observations) and shards capture concurrently; tenants removed
// mid-capture are skipped.
func (f *Fleet) captureAll() ([]tenantSnap, error) {
	return sweep(f, (*tenant).snapshot)
}

// writeArtifactFrames writes an artifact frame for every artifact snap
// references that held does not list yet and adds those to held; it
// reports the bytes written and the digests added (on error too, so a
// caller that rolls the write back can take them out of held again).
func writeArtifactFrames(fw *frameWriter, snap *tenantSnap, held map[digest]bool) (written int64, added []digest, err error) {
	emit := func(kind byte, refs []artifactRef) error {
		for _, ref := range refs {
			if held[ref.saved.Digest] {
				continue
			}
			n, err := fw.frame(&logFrame{Kind: frameArtifact, Digest: ref.Digest, Artifact: kind, Data: ref.saved.Data})
			if err != nil {
				return err
			}
			written += n
			held[ref.saved.Digest] = true
			added = append(added, ref.saved.Digest)
		}
		return nil
	}
	if err = emit(artifactGMap, snap.GMaps); err == nil {
		err = emit(artifactTree, snap.Trees)
	}
	return written, added, err
}

// writeBaseLog writes snaps as a complete frame log — the magic header,
// one artifact frame per distinct artifact the tenants reference, then one
// base frame per tenant — and reports the bytes written and the artifacts
// the log now holds. It is the one base-log writer: Fleet.Snapshot streams
// it to the caller's writer, journal compaction to the temp file it then
// fsyncs and swaps in.
func writeBaseLog(w io.Writer, snaps []tenantSnap) (int64, map[digest]bool, error) {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return 0, nil, fmt.Errorf("fleet: write frame log: %w", err)
	}
	written := int64(len(snapshotMagic))
	held := map[digest]bool{}
	fw := &frameWriter{w: w}
	for i := range snaps {
		n, _, err := writeArtifactFrames(fw, &snaps[i], held)
		written += n
		if err != nil {
			return written, nil, err
		}
	}
	for i := range snaps {
		n, err := fw.frame(&logFrame{Kind: frameBase, Base: &snaps[i]})
		if err != nil {
			return written, nil, err
		}
		written += n
	}
	return written, held, nil
}

// Snapshot serializes every tenant's controller state to w as a base log:
// each distinct learned artifact once, then one base frame per tenant
// (sorted by tenant id — identical fleet state yields identical bytes).
func (f *Fleet) Snapshot(w io.Writer) error {
	snaps, err := f.captureAll()
	if err != nil {
		return err
	}
	if _, _, err := writeBaseLog(w, snaps); err != nil {
		return err
	}
	f.snapshots.Add(1)
	return nil
}

// Restore rebuilds the tenants of a frame log written by Snapshot or a
// Journal and registers them. Each distinct artifact in the log is decoded
// once and shared, through the fleet's artifact store, by every tenant
// that references it (and by tenants of the same fingerprint created
// later); restores then fan out across tenants, each replaying its
// observation log to reconstruct the exact controller state. Strict: a
// truncated log is an error (use OpenJournal for crash-tolerant recovery).
func (f *Fleet) Restore(r io.Reader) error {
	return f.restoreLog(r, false)
}

func (f *Fleet) restoreLog(r io.Reader, tolerateTorn bool) error {
	if err := f.ctx.Err(); err != nil {
		return ErrClosed
	}
	log, err := assembleLog(r, tolerateTorn)
	if err != nil {
		return err
	}
	gmaps, err := decodeDistinct(f.ctx, log, func(s *tenantSnap) []artifactRef { return s.GMaps }, controller.DecodeGMap)
	if err != nil {
		return err
	}
	trees, err := decodeDistinct(f.ctx, log, func(s *tenantSnap) []artifactRef { return s.Trees }, controller.DecodeTreeJTilde)
	if err != nil {
		return err
	}
	tenants := make([]*tenant, len(log.tenants))
	err = par.ForCtx(f.ctx, par.Workers(0), len(log.tenants), func(i int) error {
		t, err := restoreTenant(log.tenants[i], f.artifacts, gmaps, trees)
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

// decodeDistinct decodes each distinct artifact the live tenants reference
// through refsOf exactly once, fanning the distinct blobs across the
// worker pool; restoreTenant then hands every tenant the shared decoded
// objects.
func decodeDistinct[T any](ctx context.Context, l *assembledLog, refsOf func(*tenantSnap) []artifactRef, decode func([]byte) (T, error)) (map[digest]T, error) {
	var ids []digest
	seen := map[digest]bool{}
	for i := range l.tenants {
		for _, ref := range refsOf(&l.tenants[i]) {
			if d, _ := asDigest(ref.Digest); !seen[d] {
				seen[d] = true
				ids = append(ids, d)
			}
		}
	}
	decoded, err := par.MapCtx(ctx, par.Workers(0), len(ids), func(i int) (T, error) {
		a, err := decode(l.blobs[ids[i]])
		if err != nil {
			return a, fmt.Errorf("fleet: artifact %x: %w", ids[i][:8], err)
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[digest]T, len(ids))
	for i, d := range ids {
		out[d] = decoded[i]
	}
	return out, nil
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

// snapshot captures one tenant. Runs on the tenant's home shard. The
// artifacts' serialized forms are memoized with the (shared) artifacts, so
// only the first capture of a fingerprint in the fleet encodes anything.
func (t *tenant) snapshot() (tenantSnap, error) {
	snap := tenantSnap{
		ID:           t.id,
		Config:       t.cfg,
		Observations: t.observations.tail(0),
		Quarantined:  t.quarantined.Load(),
		gen:          t.gen,
	}
	art := t.mgr.Artifacts()
	var err error
	if snap.GMaps, err = refsTo(art.GMaps); err != nil {
		return snap, fmt.Errorf("fleet: tenant %s gmap: %w", t.id, err)
	}
	if snap.Trees, err = refsTo(art.Trees); err != nil {
		return snap, fmt.Errorf("fleet: tenant %s tree: %w", t.id, err)
	}
	return snap, nil
}

// refsTo references each artifact of a manager's set by the digest of its
// memoized serialized form, sorted by key.
func refsTo[T interface {
	Saved() (*controller.Saved, error)
}](artifacts map[string]T) ([]artifactRef, error) {
	var refs []artifactRef
	for key, a := range artifacts {
		saved, err := a.Saved()
		if err != nil {
			return nil, err
		}
		refs = append(refs, artifactRef{Key: key, Digest: saved.Digest[:], saved: saved})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Key < refs[j].Key })
	return refs, nil
}

// restoreTenant rebuilds one tenant from its assembled state: its logged
// artifacts (already decoded, shared) go to the store with it, and the
// observation log is replayed.
func restoreTenant(s tenantSnap, store *core.ArtifactStore, gmaps map[digest]*controller.GMap, trees map[digest]*controller.TreeJTilde) (*tenant, error) {
	logged := &core.ArtifactSet{
		GMaps: make(map[string]*controller.GMap, len(s.GMaps)),
		Trees: make(map[string]*controller.TreeJTilde, len(s.Trees)),
	}
	for _, ref := range s.GMaps {
		d, _ := asDigest(ref.Digest)
		logged.GMaps[ref.Key] = gmaps[d]
	}
	for _, ref := range s.Trees {
		d, _ := asDigest(ref.Digest)
		logged.Trees[ref.Key] = trees[d]
	}
	t, err := newTenant(s.ID, s.Config, store, logged)
	if err != nil {
		return nil, err
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
	// The replay is reconstruction, not work this fleet did: the telemetry
	// fold starts past it.
	t.cursor = t.mgr.Recorder().Total()
	t.operational = t.sess.Operational()
	return t, nil
}
