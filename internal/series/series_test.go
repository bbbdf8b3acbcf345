package series

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNewZeroFilled(t *testing.T) {
	s := New(10, 2, 5)
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	for i, v := range s.Values {
		if v != 0 {
			t.Errorf("Values[%d] = %v, want 0", i, v)
		}
	}
	if s.End() != 20 {
		t.Errorf("End = %v, want 20", s.End())
	}
}

func TestFromValuesCopies(t *testing.T) {
	src := []float64{1, 2, 3}
	s := FromValues(0, 1, src)
	src[0] = 99
	if s.Values[0] != 1 {
		t.Errorf("FromValues did not copy: got %v", s.Values[0])
	}
}

func TestTimeAtAndIndexOf(t *testing.T) {
	s := FromValues(100, 30, []float64{1, 2, 3, 4})
	if got := s.TimeAt(2); got != 160 {
		t.Errorf("TimeAt(2) = %v, want 160", got)
	}
	cases := []struct {
		t    float64
		want int
	}{
		{99, 0}, {100, 0}, {129.9, 0}, {130, 1}, {219, 3}, {500, 3},
	}
	for _, c := range cases {
		if got := s.IndexOf(c.t); got != c.want {
			t.Errorf("IndexOf(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestAtPiecewiseConstant(t *testing.T) {
	s := FromValues(0, 10, []float64{5, 7, 9})
	if got := s.At(15); got != 7 {
		t.Errorf("At(15) = %v, want 7", got)
	}
	if got := s.At(-3); got != 5 {
		t.Errorf("At(-3) = %v, want clamp to first = 5", got)
	}
	if got := s.At(1e9); got != 9 {
		t.Errorf("At(big) = %v, want clamp to last = 9", got)
	}
	var empty Series
	if got := empty.At(1); got != 0 {
		t.Errorf("empty At = %v, want 0", got)
	}
}

func TestScaleShiftClamp(t *testing.T) {
	s := FromValues(0, 1, []float64{-1, 0, 2})
	s.Scale(3).ClampMin(0)
	want := []float64{0, 0, 6}
	for i, w := range want {
		if s.Values[i] != w {
			t.Errorf("Values[%d] = %v, want %v", i, s.Values[i], w)
		}
	}
}

func TestSmoothConstantIsIdentity(t *testing.T) {
	s := FromValues(0, 1, []float64{4, 4, 4, 4, 4})
	out := s.Smooth(3)
	for i, v := range out.Values {
		if !almostEqual(v, 4, 1e-12) {
			t.Errorf("Smooth const [%d] = %v, want 4", i, v)
		}
	}
}

func TestSmoothReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(0, 1, 500)
	for i := range s.Values {
		s.Values[i] = rng.NormFloat64()
	}
	variance := func(v []float64) float64 {
		mean, sum := 0.0, 0.0
		for _, x := range v {
			mean += x
		}
		mean /= float64(len(v))
		for _, x := range v {
			sum += (x - mean) * (x - mean)
		}
		return sum / float64(len(v))
	}
	if vs, vo := variance(s.Values), variance(s.Smooth(9).Values); vo >= vs {
		t.Errorf("Smooth did not reduce variance: %v >= %v", vo, vs)
	}
}

func TestRebinSum(t *testing.T) {
	s := FromValues(0, 1, []float64{1, 2, 3, 4, 5})
	out, err := s.Rebin(2, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 7, 5}
	if out.Step != 2 {
		t.Errorf("Step = %v, want 2", out.Step)
	}
	for i, w := range want {
		if out.Values[i] != w {
			t.Errorf("Rebin sum [%d] = %v, want %v", i, out.Values[i], w)
		}
	}
}

func TestRebinMean(t *testing.T) {
	s := FromValues(0, 1, []float64{2, 4, 6, 8})
	out, err := s.Rebin(2, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 7}
	for i, w := range want {
		if out.Values[i] != w {
			t.Errorf("Rebin mean [%d] = %v, want %v", i, out.Values[i], w)
		}
	}
}

func TestRebinInvalidFactor(t *testing.T) {
	s := FromValues(0, 1, []float64{1})
	if _, err := s.Rebin(0, true); err == nil {
		t.Error("Rebin(0) error = nil, want error")
	}
}

func TestRebinSumPreservesTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n uint16, factorSeed uint8) bool {
		raw := make([]float64, int(n%300)+1)
		for i := range raw {
			raw[i] = rng.NormFloat64() * 1e4
		}
		factor := int(factorSeed%7) + 1
		s := FromValues(0, 1, raw)
		out, err := s.Rebin(factor, true)
		if err != nil {
			return false
		}
		return almostEqual(out.Sum(), s.Sum(), 1e-6*(1+math.Abs(s.Sum())))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSliceClamps(t *testing.T) {
	s := FromValues(0, 1, []float64{0, 1, 2, 3})
	out := s.Slice(-5, 99)
	if out.Len() != 4 {
		t.Errorf("Slice full len = %d, want 4", out.Len())
	}
	out = s.Slice(1, 3)
	if out.Len() != 2 || out.Values[0] != 1 || out.Start != 1 {
		t.Errorf("Slice(1,3) = %+v, want values [1 2] start 1", out)
	}
	if got := s.Slice(3, 1).Len(); got != 0 {
		t.Errorf("inverted Slice len = %d, want 0", got)
	}
}

func TestSummaryStats(t *testing.T) {
	s := FromValues(0, 1, []float64{3, -1, 4, 2})
	if s.Sum() != 8 {
		t.Errorf("Sum = %v, want 8", s.Sum())
	}
	if s.Mean() != 2 {
		t.Errorf("Mean = %v, want 2", s.Mean())
	}
	if s.Max() != 4 {
		t.Errorf("Max = %v, want 4", s.Max())
	}
	if s.Min() != -1 {
		t.Errorf("Min = %v, want -1", s.Min())
	}
	var empty Series
	if empty.Mean() != 0 || empty.Max() != 0 || empty.Min() != 0 {
		t.Error("empty series stats should be 0")
	}
}

func TestAddGaussianNoiseRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(0, 1, 10)
	s.AddGaussianNoise(rng, 1.0, 3, 6)
	for i, v := range s.Values {
		inRange := i >= 3 && i < 6
		if !inRange && v != 0 {
			t.Errorf("noise leaked to index %d: %v", i, v)
		}
	}
	// Out-of-range indices are clamped, not a panic.
	s.AddGaussianNoise(rng, 1.0, -10, 100)
}

func TestCSVRoundTrip(t *testing.T) {
	s := FromValues(5, 2.5, []float64{1.5, -2, 0, 1e6})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Start != s.Start || got.Step != s.Step || got.Len() != s.Len() {
		t.Fatalf("round trip meta = %+v, want %+v", got, s)
	}
	for i := range s.Values {
		if got.Values[i] != s.Values[i] {
			t.Errorf("Values[%d] = %v, want %v", i, got.Values[i], s.Values[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := ReadCSV(strings.NewReader("time_s,value\nabc,1\n")); err == nil {
		t.Error("bad time: want error")
	}
	if _, err := ReadCSV(strings.NewReader("time_s,value\n1,xyz\n")); err == nil {
		t.Error("bad value: want error")
	}
}

func TestASCIIPlotShape(t *testing.T) {
	s := FromValues(0, 1, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	out := s.ASCIIPlot("ramp", 10, 4)
	if !strings.Contains(out, "ramp") {
		t.Error("plot missing title")
	}
	if !strings.Contains(out, "*") {
		t.Error("plot missing data markers")
	}
	var empty Series
	if got := empty.ASCIIPlot("none", 10, 4); !strings.Contains(got, "empty") {
		t.Errorf("empty plot = %q, want note", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := FromValues(0, 1, []float64{1, 2})
	c := s.Clone()
	c.Values[0] = 42
	if s.Values[0] != 1 {
		t.Error("Clone shares backing array")
	}
}
