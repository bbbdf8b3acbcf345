package controller

import (
	"encoding/gob"
	"fmt"
	"io"

	"hierctl/internal/approx"
	"hierctl/internal/cluster"
)

// Artifact persistence: the offline simulation-based learning (maps g,
// trees J̃) is the expensive phase of bringing up the hierarchy, so both
// artifacts can be saved and reloaded. A loaded artifact is only valid for
// the exact configuration it was learned under; callers key artifact files
// by configuration fingerprints (see internal/core).

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

// ReadTreeJTilde deserializes a module cost tree written by Save.
func ReadTreeJTilde(r io.Reader) (*TreeJTilde, error) {
	tree, err := approx.ReadTree(r)
	if err != nil {
		return nil, err
	}
	return NewTreeJTilde(tree)
}
