package controller

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"hierctl/internal/approx"
	"hierctl/internal/cluster"
)

// Artifact persistence: the offline simulation-based learning (maps g,
// trees J̃) is the expensive phase of bringing up the hierarchy, so both
// artifacts can be saved and reloaded. A loaded artifact is only valid for
// the exact configuration it was learned under; callers key artifact files
// by configuration fingerprints (see internal/core).

// Saved is an artifact's serialized form — exactly the bytes Save writes —
// with its SHA-256 content digest. Both slices are shared with the
// artifact's memo: treat them as read-only.
type Saved struct {
	Data   []byte
	Digest [sha256.Size]byte
}

// savedMemo produces an artifact's Saved form once. Learned artifacts are
// immutable, so the first encoding (or the bytes the artifact was decoded
// from) stays valid for the artifact's lifetime; concurrent callers wait
// for the one encoder.
type savedMemo struct {
	once  sync.Once
	saved Saved
	err   error
}

func (m *savedMemo) get(save func(io.Writer) error) (*Saved, error) {
	m.once.Do(func() {
		var buf bytes.Buffer
		if m.err = save(&buf); m.err == nil {
			m.set(buf.Bytes())
		}
	})
	if m.err != nil {
		return nil, m.err
	}
	return &m.saved, nil
}

func (m *savedMemo) set(data []byte) {
	m.saved = Saved{Data: data, Digest: sha256.Sum256(data)}
}

type gmapHeader struct {
	Version int
	Cfg     GMapConfig
	Spec    cluster.ComputerSpec
}

const gmapVersion = 1

// Save serializes the learned abstraction map.
func (g *GMap) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(gmapHeader{Version: gmapVersion, Cfg: g.cfg, Spec: g.spec}); err != nil {
		return fmt.Errorf("controller: encode gmap header: %w", err)
	}
	return g.table.Save(w)
}

// Saved returns the map's serialized form, encoded on first use and
// memoized.
func (g *GMap) Saved() (*Saved, error) { return g.saved.get(g.Save) }

// DecodeGMap is ReadGMap over a byte slice the caller will not modify; the
// map keeps data as its Saved form, so persisting a decoded artifact again
// writes the bytes it was read from without re-encoding.
func DecodeGMap(data []byte) (*GMap, error) {
	g, err := ReadGMap(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	g.saved.once.Do(func() { g.saved.set(data) })
	return g, nil
}

// ReadGMap deserializes an abstraction map written by Save.
func ReadGMap(r io.Reader) (*GMap, error) {
	dec := gob.NewDecoder(r)
	var h gmapHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("controller: decode gmap header: %w", err)
	}
	if h.Version != gmapVersion {
		return nil, fmt.Errorf("controller: gmap artifact version %d, want %d", h.Version, gmapVersion)
	}
	if err := h.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("controller: gmap artifact config: %w", err)
	}
	if err := h.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("controller: gmap artifact spec: %w", err)
	}
	table, err := approx.ReadTable(r)
	if err != nil {
		return nil, err
	}
	return &GMap{table: table, cfg: h.Cfg, spec: h.Spec}, nil
}

// Save serializes the module cost tree.
func (t *TreeJTilde) Save(w io.Writer) error {
	return t.tree.Save(w)
}

// Saved returns the tree's serialized form, encoded on first use and
// memoized.
func (t *TreeJTilde) Saved() (*Saved, error) { return t.saved.get(t.Save) }

// DecodeTreeJTilde is DecodeGMap for module cost trees.
func DecodeTreeJTilde(data []byte) (*TreeJTilde, error) {
	t, err := ReadTreeJTilde(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	t.saved.once.Do(func() { t.saved.set(data) })
	return t, nil
}

// ReadTreeJTilde deserializes a module cost tree written by Save.
func ReadTreeJTilde(r io.Reader) (*TreeJTilde, error) {
	tree, err := approx.ReadTree(r)
	if err != nil {
		return nil, err
	}
	return NewTreeJTilde(tree)
}
