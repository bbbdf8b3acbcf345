package llc

import (
	"fmt"

	"hierctl/internal/par"
)

type pool struct {
	scratch []float64
	text    []byte
	anys    []interface{}
	seq     *pool
}

func consume(v interface{}) { _ = v }

func consumeAll(vs ...interface{}) { _ = vs }

// Non-hotpath functions may allocate freely: no diagnostics.
func cold(n int) []int {
	return make([]int, n)
}

// Every known allocation source is flagged inside a hotpath function.
//
//hpm:hotpath
func (p *pool) hot(xs []float64, name string) string {
	s := fmt.Sprintf("n=%d", len(xs)) // want `fmt\.Sprintf builds a string in hot path`
	s = s + name                      // want `string concatenation allocates in hot path`
	m := map[string]int{}             // want `map literal allocates in hot path`
	m[name] = len(xs)
	lit := []float64{1} // want `slice literal allocates in hot path`
	lit = append(lit, xs...)
	grown := append(xs, 1)             // want `append grows a fresh slice in hot path`
	q := make([]float64, 8)            // want `make allocates in hot path`
	box := new(pool)                   // want `new allocates in hot path`
	ref := &pool{}                     // want `&composite literal allocates in hot path`
	f := func() int { return len(xs) } // want `closure captures outer variables and allocates in hot path`
	consume(len(xs))                   // want `implicit interface conversion boxes a value in hot path`
	_ = f()
	_, _, _, _ = grown, q, box, ref
	return s
}

// Sanctioned allocations escape with a justification; deleting any one
// directive re-surfaces its diagnostic.
//
//hpm:hotpath
func (p *pool) warm(xs []float64) []float64 {
	if p.seq == nil {
		p.seq = &pool{} //hpm:alloc one-time warm-up reused across calls
	}
	out := make([]float64, len(xs)) //hpm:alloc copy-out counted by the bench pin
	copy(out, xs)
	return out
}

// The pooled-buffer idioms and cold error construction stay legal.
//
//hpm:hotpath
func (p *pool) legal(xs []float64, name string) (float64, error) {
	if xs == nil {
		return 0, fmt.Errorf("llc: nil input %v", xs)
	}
	p.scratch = append(p.scratch[:0], xs...)
	p.scratch = append(p.scratch, 1)
	p.text = append(p.text[:0], "text"...)
	p.text = append(p.text, name...)
	consumeAll(p.anys...)
	acc := 0.0
	for _, v := range p.scratch {
		acc += v
	}
	g := func(a float64) float64 { return a + 1 }
	consume(nil)
	consume(&p.scratch)
	return g(acc), nil
}

func step(int) error { return nil }

// A hot function may not fan out: the pool is rejected even behind an
// //hpm:alloc escape, and stays legal everywhere else.
//
//hpm:hotpath
func (p *pool) fanOut(n int) error {
	return par.For(2, n, step) //hpm:alloc no escape applies // want `par\.For fans out inside a hot path`
}

func (p *pool) learn(n int) error {
	return par.For(2, n, step)
}
