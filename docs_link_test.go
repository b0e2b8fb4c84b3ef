package heapgossip

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/report"
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
// can: every `go run ./cmd/<tool> ...` or `go run ./examples/<dir> ...` line
// inside a fenced block of the README, EXPERIMENTS or docs/ must name a
// program that exists and only use flags its main.go declares, and every
// `heapbench -artifact NAME`, fenced or in backticks, must name an artifact
// heapbench renders, so a deleted example or a renamed or misremembered flag
// or artifact fails here instead of in a reader's terminal.
func TestDocsCommandFlags(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "EXPERIMENTS.md")
	cmdRe := regexp.MustCompile(`^go run \./((?:cmd|examples)/\w+)(.*)$`)
	flagRe := regexp.MustCompile(`(?:^|\s)--?([a-zA-Z][\w-]*)`)
	declared := map[string]map[string]bool{} // program -> flag set
	artifacts := map[string]bool{"all": true}
	for _, name := range report.Artifacts() {
		artifacts[name] = true
	}
	checked, checkedArtifacts := 0, 0
	checkArtifact := func(doc, code string) {
		code = strings.Join(strings.Fields(code), " ")
		for _, m := range artifactRe.FindAllStringSubmatch(code, -1) {
			checkedArtifacts++
			if !artifacts[m[1]] {
				t.Errorf("%s: `%s` names artifact %q, which heapbench does not render (known: %v)",
					doc, code, m[1], report.Artifacts())
			}
		}
	}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		var prose strings.Builder // the text outside fenced blocks
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
				continue
			}
			if !fenced {
				prose.WriteString(line + "\n")
			} else {
				checkArtifact(doc, line)
			}
			m := cmdRe.FindStringSubmatch(line)
			if !fenced || m == nil {
				continue
			}
			prog, args := m[1], m[2]
			if i := strings.Index(args, " #"); i >= 0 {
				args = args[:i] // trailing shell comment
			}
			flags, seen := declared[prog]
			if !seen {
				flags = declaredFlags(prog)
				declared[prog] = flags
			}
			if flags == nil {
				t.Errorf("%s: `%s` runs ./%s, which has no main.go", doc, line, prog)
				continue
			}
			for _, f := range flagRe.FindAllStringSubmatch(args, -1) {
				checked++
				if !flags[f[1]] {
					t.Errorf("%s: `%s` uses -%s, which %s/main.go does not declare", doc, line, f[1], prog)
				}
			}
		}
		// Inline code spans, which may wrap onto the next line.
		for _, m := range inlineCodeRe.FindAllStringSubmatch(prose.String(), -1) {
			checkArtifact(doc, m[1])
		}
	}
	if checked == 0 || checkedArtifacts == 0 {
		t.Fatalf("%d documented command flags and %d artifact names found: the parser matches nothing",
			checked, checkedArtifacts)
	}
}

var (
	// artifactRe matches a heapbench command's -artifact value.
	artifactRe = regexp.MustCompile(`\bheapbench\b[^#]*?\s--?artifact[ =]([\w-]+)`)
	// inlineCodeRe matches a markdown inline code span.
	inlineCodeRe = regexp.MustCompile("`([^`]+)`")
)

// declaredFlags returns the flag names <prog>/main.go registers with the
// flag package, or nil if there is no such program.
func declaredFlags(prog string) map[string]bool {
	src, err := os.ReadFile(filepath.Join(filepath.FromSlash(prog), "main.go"))
	if err != nil {
		return nil
	}
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\((?:&\w+, )?"([\w-]+)"`).FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	return flags
}
