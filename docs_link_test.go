package heapgossip

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsRelativeLinks is the docs link-checker `make check` runs: every
// relative link in the repo's markdown files must resolve to a file that
// exists, so the README / EXPERIMENTS / ARCHITECTURE cross-reference web
// cannot rot silently. External (http/https/mailto) links and pure anchors
// are out of scope.
func TestDocsRelativeLinks(t *testing.T) {
	docs := []string{
		"README.md",
		"EXPERIMENTS.md",
		"ROADMAP.md",
		filepath.Join("docs", "ARCHITECTURE.md"),
	}
	linkRe := regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Strip a trailing anchor: FILE.md#section checks FILE.md.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s links to %q, which does not resolve (%v)", doc, m[1], err)
			}
		}
	}
}

// TestDocsCommandFlags executes the docs' command lines as far as a test
// can: every `go run ./cmd/<tool> ...` line inside a fenced block of the
// README, EXPERIMENTS or docs/ must only use flags that tool's main.go
// declares, so a renamed or misremembered flag fails here instead of in a
// reader's terminal.
func TestDocsCommandFlags(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "EXPERIMENTS.md")
	cmdRe := regexp.MustCompile(`^go run \./cmd/(\w+)(.*)$`)
	flagRe := regexp.MustCompile(`(?:^|\s)--?([a-zA-Z][\w-]*)`)
	declared := map[string]map[string]bool{} // tool -> flag set
	checked := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
				continue
			}
			m := cmdRe.FindStringSubmatch(line)
			if !fenced || m == nil {
				continue
			}
			tool, args := m[1], m[2]
			if i := strings.Index(args, " #"); i >= 0 {
				args = args[:i] // trailing shell comment
			}
			if declared[tool] == nil {
				declared[tool] = declaredFlags(t, tool)
			}
			for _, f := range flagRe.FindAllStringSubmatch(args, -1) {
				checked++
				if !declared[tool][f[1]] {
					t.Errorf("%s: `%s` uses -%s, which cmd/%s/main.go does not declare", doc, line, f[1], tool)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no documented command flags found: the parser matches nothing")
	}
}

// declaredFlags returns the flag names cmd/<tool>/main.go registers with the
// flag package.
func declaredFlags(t *testing.T, tool string) map[string]bool {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("cmd", tool, "main.go"))
	if err != nil {
		t.Fatalf("documented command: %v", err)
	}
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\((?:&\w+, )?"([\w-]+)"`).FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	return flags
}
