package hierctl

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// markdownLink matches inline markdown links [text](target). Reference
// definitions and autolinks are out of scope — the repo's docs use the
// inline form.
var markdownLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsRelativeLinks fails on broken relative links in README.md and
// everything under docs/ — the docs check CI runs. External links
// (schemes) and pure in-page anchors are skipped; anchors on relative
// targets are stripped before the existence check.
func TestDocsRelativeLinks(t *testing.T) {
	var files []string
	if _, err := os.Stat("README.md"); err == nil {
		files = append(files, "README.md")
	}
	_ = filepath.WalkDir("docs", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if !d.IsDir() && strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return nil
	})
	if len(files) == 0 {
		t.Fatal("no documentation files found")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range markdownLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s)", file, m[1], resolved)
			}
		}
	}
}

var (
	// prCitation matches a change-history citation such as "PR 23".
	prCitation = regexp.MustCompile(`\bPR \d+`)
	// paperMapHeading matches a heading introducing a paper-to-package
	// map, however it is worded ("Paper § → package map",
	// "Paper-to-package map").
	paperMapHeading = regexp.MustCompile(`(?mi)^#+ .*paper.*package map`)
)

// TestDocsDescribeThePresent keeps README.md and docs/ARCHITECTURE.md
// about the current code: history lives in CHANGES.md, so neither cites a
// PR, and the paper-to-package map exists once, in ARCHITECTURE.
func TestDocsDescribeThePresent(t *testing.T) {
	var maps []string
	for _, file := range []string{"README.md", filepath.Join("docs", "ARCHITECTURE.md")} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := prCitation.FindString(line); m != "" {
				t.Errorf("%s:%d cites %q; change history belongs in CHANGES.md", file, i+1, m)
			}
		}
		for _, h := range paperMapHeading.FindAllString(string(data), -1) {
			maps = append(maps, file+": "+h)
		}
	}
	if len(maps) != 1 {
		t.Errorf("paper-to-package map headings %q, want exactly one", maps)
	}
}
