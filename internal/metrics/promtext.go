package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
)

// This file is a strict line-format linter for the Prometheus text
// exposition format (v0.0.4), used two ways: the registry's own tests
// lint WriteText output and the hpmserve handler tests lint the real
// handler's whole /metrics scrape in-process. It is deliberately
// stricter than a Prometheus scraper: every sample must belong to a
// family announced by a preceding `# TYPE` line, each family's lines
// must be contiguous, and histogram invariants (cumulative buckets,
// +Inf == count) are checked.

var (
	sampleLineRE = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? ([^ ]+)$`)
	labelPairRE = regexp.MustCompile(
		`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

type lintFamily struct {
	kind     string
	sawHelp  bool
	closed   bool // a later family started; more lines are an interleave error
	seen     map[string]bool
	hist     map[string]*lintHist // histograms: base label key -> bucket state
	nSamples int
}

type lintHist struct {
	prev   float64 // previous bucket's cumulative count
	prevLe float64 // previous le bound
	inf    float64 // +Inf bucket value, NaN until seen
	hasInf bool
	count  float64
	hasCnt bool
}

// LintPromText reads a Prometheus text exposition and returns an error
// describing the first violation: malformed lines, samples without a
// TYPE, duplicate HELP/TYPE or series, interleaved families,
// non-cumulative histogram buckets, or a histogram whose +Inf bucket
// disagrees with its _count.
func LintPromText(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	fams := map[string]*lintFamily{}
	var current string
	lineNo := 0
	enter := func(name string) *lintFamily {
		if name != current {
			if cur, ok := fams[current]; ok {
				cur.closed = true
			}
			current = name
		}
		f := fams[name]
		if f == nil {
			f = &lintFamily{seen: map[string]bool{}, hist: map[string]*lintHist{}}
			fams[name] = f
		}
		return f
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fail("malformed comment %q (only # HELP and # TYPE are allowed)", line)
			}
			name := fields[2]
			f := enter(name)
			if f.closed {
				return fail("family %q reopened after another family started", name)
			}
			switch fields[1] {
			case "HELP":
				if f.sawHelp {
					return fail("duplicate # HELP for %q", name)
				}
				if len(fields) < 4 || fields[3] == "" {
					return fail("# HELP %s has no help text", name)
				}
				f.sawHelp = true
			case "TYPE":
				if f.kind != "" {
					return fail("duplicate # TYPE for %q", name)
				}
				if f.nSamples > 0 {
					return fail("# TYPE for %q after its samples", name)
				}
				if len(fields) != 4 {
					return fail("malformed # TYPE line %q", line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.kind = fields[3]
				default:
					return fail("unknown type %q for %q", fields[3], name)
				}
			}
			continue
		}
		m := sampleLineRE.FindStringSubmatch(line)
		if m == nil {
			return fail("malformed sample line %q", line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		value, err := strconv.ParseFloat(strings.TrimPrefix(valStr, "+"), 64)
		if err != nil {
			return fail("unparseable value %q: %v", valStr, err)
		}
		var le string
		var hasLe bool
		var baseLabels []string
		if labels != "" {
			for _, pair := range splitLabelPairs(labels) {
				lm := labelPairRE.FindStringSubmatch(pair)
				if lm == nil {
					return fail("malformed label pair %q in %q", pair, line)
				}
				if lm[1] == "le" {
					if hasLe {
						return fail("duplicate le label in %q", line)
					}
					le, hasLe = lm[2], true
				} else {
					baseLabels = append(baseLabels, pair)
				}
			}
		}
		famName := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, s)
			if base != name {
				if bf, ok := fams[base]; ok && bf.kind == "histogram" {
					famName, suffix = base, s
				}
				break
			}
		}
		f := enter(famName)
		if f.kind == "" {
			return fail("sample %q has no preceding # TYPE", name)
		}
		if f.closed {
			return fail("family %q reopened after another family started", famName)
		}
		if f.kind == "histogram" && suffix == "" {
			return fail("bare sample %q for histogram family %q", name, famName)
		}
		if hasLe && suffix != "_bucket" {
			return fail("le label on non-bucket sample %q", name)
		}
		seriesKey := name + "{" + labels + "}"
		if f.seen[seriesKey] {
			return fail("duplicate series %s", seriesKey)
		}
		f.seen[seriesKey] = true
		f.nSamples++
		if f.kind == "histogram" {
			baseKey := strings.Join(baseLabels, ",")
			h := f.hist[baseKey]
			if h == nil {
				h = &lintHist{prevLe: math.Inf(-1)}
				f.hist[baseKey] = h
			}
			switch suffix {
			case "_bucket":
				if !hasLe {
					return fail("histogram bucket %q missing le label", line)
				}
				bound, err := parseLe(le)
				if err != nil {
					return fail("bad le %q: %v", le, err)
				}
				if bound <= h.prevLe {
					return fail("histogram %q buckets out of order (le %q)", famName, le)
				}
				if value < h.prev {
					return fail("histogram %q buckets not cumulative at le %q", famName, le)
				}
				h.prev, h.prevLe = value, bound
				if isInfStr(le) {
					h.inf, h.hasInf = value, true
				}
			case "_count":
				h.count, h.hasCnt = value, true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	for name, f := range fams {
		if f.kind == "histogram" {
			for key, h := range f.hist {
				if !h.hasInf {
					return fmt.Errorf("histogram %q series {%s} missing +Inf bucket", name, key)
				}
				if !h.hasCnt {
					return fmt.Errorf("histogram %q series {%s} missing _count", name, key)
				}
				if h.inf != h.count {
					return fmt.Errorf("histogram %q series {%s}: +Inf bucket %g != _count %g", name, key, h.inf, h.count)
				}
			}
		}
	}
	return nil
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var pairs []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if depth {
				i++
			}
		case '"':
			depth = !depth
		case ',':
			if !depth {
				pairs = append(pairs, s[start:i])
				start = i + 1
			}
		}
	}
	return append(pairs, s[start:])
}

func parseLe(le string) (float64, error) {
	if isInfStr(le) {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(le, 64)
}

func isInfStr(le string) bool { return le == "+Inf" || le == "Inf" }
