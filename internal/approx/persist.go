package approx

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Serialization uses encoding/gob over explicit DTOs so the unexported
// internals stay free to change without breaking saved artifacts beyond a
// version bump.

const persistVersion = 1

type treeDTO struct {
	Version int
	Dims    int
	Nodes   []nodeDTO
}

type nodeDTO struct {
	Dim       int
	Threshold float64
	Left      int
	Right     int
	Value     float64
	Count     int
}

// Save serializes the tree.
func (t *RegressionTree) Save(w io.Writer) error {
	dto := treeDTO{Version: persistVersion, Dims: t.dims, Nodes: make([]nodeDTO, len(t.nodes))}
	for i, n := range t.nodes {
		dto.Nodes[i] = nodeDTO{Dim: n.dim, Threshold: n.threshold, Left: n.left, Right: n.right, Value: n.value, Count: n.count}
	}
	if err := gob.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("approx: encode tree: %w", err)
	}
	return nil
}

// ReadTree deserializes a tree written by Save.
func ReadTree(r io.Reader) (*RegressionTree, error) {
	var dto treeDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("approx: decode tree: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("approx: tree artifact version %d, want %d", dto.Version, persistVersion)
	}
	if dto.Dims < 1 || len(dto.Nodes) == 0 {
		return nil, fmt.Errorf("approx: tree artifact malformed")
	}
	t := &RegressionTree{dims: dto.Dims, nodes: make([]treeNode, len(dto.Nodes))}
	for i, n := range dto.Nodes {
		if n.Left >= len(dto.Nodes) || n.Right >= len(dto.Nodes) {
			return nil, fmt.Errorf("approx: tree artifact node %d references out of range", i)
		}
		t.nodes[i] = treeNode{dim: n.Dim, threshold: n.Threshold, left: n.Left, right: n.Right, value: n.Value, count: n.Count}
	}
	return t, nil
}

type tableDTO struct {
	Version int
	Min     []float64
	Max     []float64
	Step    []float64
	Width   int
	Keys    []string
	Sums    [][]float64
	Counts  []int
}

// Save serializes the table (quantizer grid plus populated cells). On disk
// each cell key is the fixed-width int32 string of its index vector, not
// the in-memory packed word, so the format does not depend on the bit
// layout and every artifact ever written reloads unchanged.
func (t *Table) Save(w io.Writer) error {
	dto := tableDTO{
		Version: persistVersion,
		Min:     t.quant.Min, Max: t.quant.Max, Step: t.quant.Step,
		Width: t.width,
	}
	// Cells are written in sorted key order: map iteration order is
	// randomized per run, and a Save that depended on it produced
	// byte-different artifacts for identical tables (caught by the
	// maprange analyzer, pinned by TestTableSaveDeterministic).
	for _, k := range t.sortedKeys() {
		c := t.cells[k]
		dto.Keys = append(dto.Keys, cellKey(t.unpackKey(k)))
		dto.Sums = append(dto.Sums, c.sum)
		dto.Counts = append(dto.Counts, c.n)
	}
	if err := gob.NewEncoder(w).Encode(dto); err != nil {
		return fmt.Errorf("approx: encode table: %w", err)
	}
	return nil
}

// ReadTable deserializes a table written by Save.
func ReadTable(r io.Reader) (*Table, error) {
	var dto tableDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("approx: decode table: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("approx: table artifact version %d, want %d", dto.Version, persistVersion)
	}
	quant, err := NewQuantizer(dto.Min, dto.Max, dto.Step)
	if err != nil {
		return nil, fmt.Errorf("approx: table artifact quantizer: %w", err)
	}
	t, err := NewTable(quant, dto.Width)
	if err != nil {
		return nil, fmt.Errorf("approx: table artifact: %w", err)
	}
	if len(dto.Keys) != len(dto.Sums) || len(dto.Keys) != len(dto.Counts) {
		return nil, fmt.Errorf("approx: table artifact cell arrays misaligned")
	}
	for i, k := range dto.Keys {
		if len(dto.Sums[i]) != dto.Width || dto.Counts[i] < 1 || len(k) != 4*quant.Dims() {
			return nil, fmt.Errorf("approx: table artifact cell %d malformed", i)
		}
		idx := decodeKey(k)
		for d, v := range idx {
			if v < 0 || v > quant.maxIndex(d) {
				return nil, fmt.Errorf("approx: table artifact cell %d index %d outside grid", i, d)
			}
		}
		t.cells[t.packCell(idx)] = &cell{sum: dto.Sums[i], n: dto.Counts[i]}
	}
	return t, nil
}
