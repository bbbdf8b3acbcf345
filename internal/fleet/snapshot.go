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

	"hierctl/internal/controller"
	"hierctl/internal/core"
	"hierctl/internal/par"
)

// Snapshot format v3: a frame log of checkpoints. Per tenant the log
// captures (a) its configuration and (b) its checkpoint: the tenant's state
// after its last clean bin — plant queues and clocks, energy books, latency
// histogram, random-stream positions, the store's locality history,
// estimators, each module's decision in force and the cluster split — as
// one versioned binary blob (core.Session.Checkpoint, which still restores
// its versions 1 and 2), followed by the counts of any bins since.
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
// The container is a magic header followed by frames, each one gob
// message framed by its length and checksum:
//
//	[u32 payload length][u32 crc32(payload)][gob(logFrame)]
//
// The frames form one gob stream. The log's first frame, the segment
// start, is a fresh encoder's first message: it carries the type
// descriptors of logFrame and everything it reaches, and nothing else.
// Every later frame is a data-only message of the same stream, which the
// reader decodes with the decoder the segment start primed; it refuses a
// log whose first frame is not a segment start and any later frame that
// carries a type definition, so a lost or repeated start fails loudly
// instead of decoding against a stream it does not belong to. The
// descriptors are paid once per log, not once per frame.
// frameWriter.writeBase writes every log head (Fleet.Snapshot's and every
// journal compaction's), the segment start included, and the journal's
// appends continue that stream. A failed append is cut away and the stream goes on: the segment
// start sent every type the stream will use, so an append never leaves
// the encoder knowing a type the log does not.
//
// A full snapshot is one checkpoint base frame per tenant (sorted by id);
// the Journal appends delta frames (counts since the tenant's last frame,
// indexed by absolute bin), remove frames, and checkpoint bases for new or
// re-based tenants to the same container, which is what makes an
// interrupted journal restorable by the same reader. A torn final frame —
// the signature of a crash mid-append — is tolerated on the journal
// recovery path and rejected by strict Restore; a checksum mismatch on a
// complete frame is corruption and always an error. The checkpoint rides
// as one []byte field, so a base pays no descriptor per piece of state.
//
// Older layouts still read. A log headed by legacyMagic predates the
// shared stream: every payload was a fresh encoder's, so each frame
// decodes through a decoder of its own, from whatever struct wrote it (the
// reader's union logFrame, or the narrow per-kind structs of later v2
// writers — gob matches fields by name). Logs written before checkpoints existed hold
// frameBase frames — a tenant's configuration and every count since
// genesis: such a base is a fresh tenant plus that tail, stepped through
// the same restore path. Logs written before learned artifacts left the
// log hold frameArtifact frames, skipped once their checksum passes, and
// bases whose artifact references (or, older still, embedded artifact
// blobs) gob drops as fields no longer declared.
//
// Frame bytes are deterministic: a checkpoint carries no wall-clock value,
// so identical fleet state snapshots to identical bytes — the property
// that lets CI diff regenerated snapshot sizes.
const snapshotMagic = "HPMSNAP3"

// legacyMagic heads the logs written before the shared stream, whose
// every frame is a gob stream of its own. Read only.
const legacyMagic = "HPMSNAP2"

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
	// frameSegment opens the log's gob stream: it carries the stream's
	// type descriptors and nothing else.
	frameSegment
)

// frameHeader is the length and checksum in front of every payload.
const frameHeader = 8

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
	// Bytes rather than a struct field, so the stream's descriptors stay
	// those of the types every log needs.
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

// logFrame is one frame of the snapshot/journal log, every kind in one
// struct: gob sends no zero field, so a frame pays for the fields its kind
// sets.
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

// frameWriter writes the frames of a log's gob stream to w. The stream's
// encoder writes each frame's gob message into buf behind frameHeader
// reserved bytes, so header and payload go out in one Write; buf grows to
// the largest frame once. A frame is whole in buf only while it is written,
// so writers used one frame at a time may share a buffer.
type frameWriter struct {
	w   io.Writer
	buf *bytes.Buffer
	enc *gob.Encoder
}

// start opens fw's gob stream on w by writing its segment start, and
// reports the bytes written.
func (fw *frameWriter) start(w io.Writer) (int64, error) {
	fw.w = w
	fw.enc = gob.NewEncoder(fw.buf)
	return fw.frame(&logFrame{Kind: frameSegment})
}

// frame encodes fr on the stream behind a reserved header, fills the
// header in and writes both at once, reporting the bytes written.
func (fw *frameWriter) frame(fr *logFrame) (int64, error) {
	var hdr [frameHeader]byte
	fw.buf.Reset()
	fw.buf.Write(hdr[:])
	if err := fw.enc.Encode(fr); err != nil {
		return 0, fmt.Errorf("fleet: encode frame: %w", err)
	}
	frame := fw.buf.Bytes()
	payload := frame[frameHeader:]
	if len(payload) > maxFramePayload {
		return 0, fmt.Errorf("fleet: frame payload %d exceeds %d", len(payload), maxFramePayload)
	}
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := fw.w.Write(frame); err != nil {
		return 0, fmt.Errorf("fleet: write frame: %w", err)
	}
	return int64(len(frame)), nil
}

// frameReader reads a log's frames in order and decodes them: a legacy
// log's each through a decoder of its own, a streamed log's through the
// decoder its segment start primed.
type frameReader struct {
	r      io.Reader
	legacy bool
	// src feeds the stream one payload at a time. A bytes.Reader is an
	// io.ByteReader, so the decoder reads no further than the message it
	// decodes.
	src bytes.Reader
	dec *gob.Decoder
}

// next decodes the next frame. io.EOF marks a clean end at a frame
// boundary; errTornFrame marks a truncated header or payload.
func (rd *frameReader) next() (logFrame, error) {
	payload, err := readFrame(rd.r)
	if err != nil {
		return logFrame{}, err
	}
	var fr logFrame
	if rd.legacy {
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&fr); err != nil {
			return logFrame{}, fmt.Errorf("fleet: decode frame: %w", err)
		}
		return fr, nil
	}
	first := rd.dec == nil
	if opens := opensStream(payload); opens != first {
		if first {
			return logFrame{}, fmt.Errorf("fleet: log does not open with a segment start")
		}
		return logFrame{}, fmt.Errorf("fleet: type definition past the log's segment start")
	}
	rd.src.Reset(payload)
	if first {
		rd.dec = gob.NewDecoder(&rd.src)
	}
	if err := rd.dec.Decode(&fr); err != nil {
		return logFrame{}, fmt.Errorf("fleet: decode frame: %w", err)
	}
	switch {
	case rd.src.Len() != 0:
		return logFrame{}, fmt.Errorf("fleet: %d bytes past the frame's message", rd.src.Len())
	case first && fr.Kind != frameSegment:
		return logFrame{}, fmt.Errorf("fleet: log opens with a frame of kind %d, not a segment start", fr.Kind)
	case !first && fr.Kind == frameSegment:
		return logFrame{}, fmt.Errorf("fleet: segment start past the log's first frame")
	}
	return fr, nil
}

// opensStream reports whether a payload's first gob message defines a
// type, as a fresh encoder's first message does and a warm encoder's
// data-only message never does. In gob's wire format a message is its byte
// count then a type id, negative for a definition; each is an integer of
// one byte below 0x80, or a negated byte count (1 to 8) and that many
// big-endian bytes, and a signed integer's sign is the low bit of its
// encoding. A payload that does not start with two such integers defines
// nothing here; the decoder refuses it.
func opensStream(p []byte) bool {
	count := gobIntLen(p)
	if count == 0 {
		return false
	}
	id := gobIntLen(p[count:])
	return id > 0 && p[count+id-1]&1 == 1
}

// gobIntLen returns the length of the gob integer p starts with, or 0 when
// p is too short to hold it or its first byte is no length gob writes.
func gobIntLen(p []byte) int {
	if len(p) == 0 {
		return 0
	}
	n := 1
	switch {
	case p[0] >= 0xF8: // -1 to -8 as a byte: that many bytes follow
		n += 256 - int(p[0])
	case p[0] >= 0x80:
		return 0
	}
	if n > len(p) {
		return 0
	}
	return n
}

// readFrame reads the next frame's payload and checks its length bound and
// checksum. io.EOF marks a clean end at a frame boundary; errTornFrame
// marks a truncated header or payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errTornFrame
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > maxFramePayload {
		return nil, fmt.Errorf("fleet: frame payload length %d outside (0, %d]", n, maxFramePayload)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return nil, err
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[4:]); got != want {
		return nil, fmt.Errorf("fleet: frame checksum %08x, want %08x", got, want)
	}
	return payload, nil
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
// magic header, readFrame's length bound and CRC, the stream rules of
// frameReader.next, base frames naming a tenant, delta frames extending a
// known tenant with no gap, known kinds) and reports what it scanned. A
// segment start is counted, and an artifact frame of an older log skipped,
// once they have been read. Each base, delta and remove frame is handed
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
	if _, err := io.ReadFull(r, magic); err != nil || (string(magic) != snapshotMagic && string(magic) != legacyMagic) {
		return rep, fmt.Errorf("fleet: not a snapshot log (bad magic)")
	}
	rd := &frameReader{r: r, legacy: string(magic) == legacyMagic}
	// live is the fold's own view of each tenant: the bins its state
	// covers, which the gap rule checks against, and the quarantine latch.
	type tenantCheck struct {
		obs          int
		quar, halted bool
	}
	live := map[string]tenantCheck{}
	for {
		fr, err := rd.next()
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
		case frameSegment:
			rep.Segments++
			continue
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

// capture is what a fleet-wide capture writes: the sweep's slots and, per
// shard, the buffer the checkpoints captured on that shard are appended to.
// A journal keeps one for its life and reuses it for every capture under
// Journal.mu; Fleet.Snapshot captures into a fresh one. The snapshots a
// capture returns view its buffers, valid until its next capture.
type capture struct {
	sweep sweepScratch[tenantSnap]
	bufs  [][]byte
	take  func(t *tenant) (tenantSnap, error)
	// journal marks a journal's capture, which also has every tenant log
	// its counts from the checkpoint on, until its journal marks them
	// durable.
	journal bool
}

// reset empties the capture's buffers, one per shard of an n-shard fleet.
func (c *capture) reset(n int) {
	if len(c.bufs) != n {
		c.bufs = make([][]byte, n)
	}
	for i := range c.bufs {
		c.bufs[i] = c.bufs[i][:0]
	}
}

// snapshot captures t into the buffer of its home shard. Runs there.
func (c *capture) snapshot(t *tenant) (tenantSnap, error) {
	snap, err := t.snapshot(&c.bufs[t.home.idx])
	if err == nil && c.journal && !t.journaled {
		t.journaled = true
		t.observations.restart(snap.Bins)
	}
	return snap, err
}

// captureAll snapshots every tenant into c (a fresh capture when nil),
// sorted by id: one sweep, so each capture runs on the tenant's home shard
// (serialized against in-flight observations) and shards capture
// concurrently; tenants removed mid-capture are skipped.
func (f *Fleet) captureAll(c *capture) ([]tenantSnap, error) {
	if c == nil {
		c = new(capture)
	}
	c.reset(len(f.shards))
	if c.take == nil {
		c.take = c.snapshot
	}
	return sweepInto(f, &c.sweep, c.take)
}

// writeBase writes snaps to w as a complete frame log — the magic header,
// then the segment start of fw's stream and one base frame per tenant — and
// reports the bytes written; later frames may continue the stream. It is
// the one base-log writer:
// Fleet.Snapshot streams it to the caller's writer, journal compaction to
// the temp file it then fsyncs and swaps in.
func (fw *frameWriter) writeBase(w io.Writer, snaps []tenantSnap) (int64, error) {
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return 0, fmt.Errorf("fleet: write frame log: %w", err)
	}
	n, err := fw.start(w)
	written := int64(len(snapshotMagic)) + n
	if err != nil {
		return written, err
	}
	fr := logFrame{Kind: frameCheckpoint}
	for i := range snaps {
		fr.Base = &snaps[i]
		n, err := fw.frame(&fr)
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
	snaps, err := f.captureAll(nil)
	if err != nil {
		return err
	}
	fw := &frameWriter{buf: new(bytes.Buffer)}
	if _, err := fw.writeBase(w, snaps); err != nil {
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
	// One Scratch per restore worker, whatever the tenant count: a worker
	// replays its tenants' counts one after another in its own.
	workers := par.Workers(0)
	scratch := make([]controller.Scratch, workers)
	err = par.ForWorkerCtx(f.ctx, workers, len(snaps), func(w, i int) error {
		t, err := restoreTenant(snaps[i], f.artifacts, &scratch[w])
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
// whose scratch writer encodes the checkpoint; the snapshot's checkpoint is
// a view of the copy appended to buf, a buffer the caller owns for this
// shard.
func (t *tenant) snapshot(buf *[]byte) (tenantSnap, error) {
	snap := tenantSnap{
		ID:          t.id,
		Config:      t.cfg,
		Bins:        t.bins,
		Quarantined: t.quarantined.Load(),
		gen:         t.gen,
	}
	if t.halt != nil {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(t.halt); err != nil {
			return snap, fmt.Errorf("fleet: tenant %s: %w", t.id, err)
		}
		snap.Halt = b.Bytes()
		return snap, nil
	}
	w := &t.home.ckpt
	w.Reset(w.Bytes())
	if err := t.sess.Checkpoint(w); err != nil {
		return snap, fmt.Errorf("fleet: tenant %s: %w", t.id, err)
	}
	start := len(*buf)
	*buf = appendDoubling(*buf, w.Bytes())
	snap.Checkpoint = (*buf)[start:len(*buf):len(*buf)]
	return snap, nil
}

// appendDoubling appends p to buf, doubling buf's array when p does not
// fit. Past 256 bytes append grows an array by about a quarter at a time,
// which allocates several times a capture buffer's final size on its way
// there; doubling allocates about twice it, once.
func appendDoubling(buf, p []byte) []byte {
	if len(p) > cap(buf)-len(buf) {
		grown := make([]byte, len(buf), max(2*cap(buf), len(buf)+len(p)))
		copy(grown, buf)
		buf = grown
	}
	return append(buf, p...)
}

// restoreTenant rebuilds one tenant from its assembled state: it is
// created from its configuration as CreateTenant creates it, its
// checkpoint (if any) is restored, and the counts since are stepped in sc. A
// checkpoint is read defensively, but a well-formed one can still hold
// state no run reaches; a panic stepping from it fails this restore like
// any other error instead of taking the process down.
func restoreTenant(s tenantSnap, store *core.ArtifactStore, sc *controller.Scratch) (_ *tenant, err error) {
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
		if err := t.step(sc, nil, count); err != nil { // reconstruction, not work this fleet did: not tallied
			t.mgr.Release()
			return nil, fmt.Errorf("fleet: tenant %s replay: %w", s.ID, err)
		}
	}
	if s.Quarantined {
		t.quarantined.Store(true)
	}
	t.operational = t.sess.Operational()
	if t.halt != nil && t.halt.Decision != nil {
		t.operational = t.halt.Decision.Operational
	}
	return t, nil
}
