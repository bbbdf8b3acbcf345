package series

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
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

func TestTimeAt(t *testing.T) {
	s := FromValues(100, 30, []float64{1, 2, 3, 4})
	if got := s.TimeAt(2); got != 160 {
		t.Errorf("TimeAt(2) = %v, want 160", got)
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
