// Doc-drift checks: every command the documentation tells the reader
// to run must still exist and parse. README.md, DESIGN.md, and
// docs/ARCHITECTURE.md quote `go run ./...` commands; this test
// extracts them, verifies the package path exists, and — for
// cmd/experiments, cmd/pslserved, cmd/pslrouter, and cmd/loadgen,
// whose flag surfaces are defined in internal/expflags precisely so
// they can be checked here — parses the quoted flags against the real
// flag set.
// CI runs this as its own step.
package repro

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/expflags"
)

var docFiles = []string{"README.md", "DESIGN.md", filepath.Join("docs", "ARCHITECTURE.md")}

// goRunRe matches a documented command: `go run ./pkg/path [flags...]`
// up to the end of the line or closing backtick.
var goRunRe = regexp.MustCompile("go run (\\./[\\w/.-]+)([^`\\n]*)")

func experimentsFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	expflags.Register(fs)
	return fs
}

// cmdFlagSets maps each doc-checked binary to a fresh flag set built
// from the same expflags registration the binary itself uses.
var cmdFlagSets = map[string]func() *flag.FlagSet{
	"./cmd/experiments": experimentsFlagSet,
	"./cmd/pslserved": func() *flag.FlagSet {
		fs := flag.NewFlagSet("pslserved", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		expflags.RegisterServe(fs)
		return fs
	},
	"./cmd/loadgen": func() *flag.FlagSet {
		fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		expflags.RegisterLoadgen(fs)
		return fs
	},
	"./cmd/pslrouter": func() *flag.FlagSet {
		fs := flag.NewFlagSet("pslrouter", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		expflags.RegisterRouter(fs)
		return fs
	},
}

// TestDocCommandsParse: documented `go run` targets exist, and
// documented cmd/experiments invocations parse against the current
// flag set.
func TestDocCommandsParse(t *testing.T) {
	found := 0
	for _, file := range docFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v (documented files must exist)", file, err)
		}
		for _, m := range goRunRe.FindAllStringSubmatch(string(data), -1) {
			found++
			pkg, rest := m[1], m[2]
			if i := strings.Index(rest, "#"); i >= 0 {
				rest = rest[:i]
			}
			st, err := os.Stat(filepath.FromSlash(pkg))
			if err != nil || !st.IsDir() {
				t.Errorf("%s quotes %q but %s is not a package directory", file, strings.TrimSpace(m[0]), pkg)
				continue
			}
			mkfs, checked := cmdFlagSets[pkg]
			if !checked {
				continue
			}
			// Shell suffixes ("&" for backgrounding) are not flags.
			args := strings.Fields(rest)
			for len(args) > 0 && args[len(args)-1] == "&" {
				args = args[:len(args)-1]
			}
			if err := mkfs().Parse(args); err != nil {
				t.Errorf("%s: documented command %q no longer parses: %v",
					file, strings.TrimSpace(m[0]), err)
			}
		}
	}
	if found < 5 {
		t.Fatalf("only %d `go run` commands found across %v — extraction regex rotted?", found, docFiles)
	}
}

// TestDocFlagReferences: DESIGN.md's experiment-index table
// abbreviates repeat commands to just their flags (e.g. `-fig 2`);
// every flag name quoted in a table row must still be registered.
// (Prose outside the table may mention go-tool flags like `-race`,
// so only `|`-delimited table lines are scanned.)
func TestDocFlagReferences(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := experimentsFlagSet()
	re := regexp.MustCompile("`-([a-z]+)( [^`]*)?`")
	found := 0
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range re.FindAllStringSubmatch(line, -1) {
			found++
			if fs.Lookup(m[1]) == nil {
				t.Errorf("DESIGN.md's index references flag -%s, which cmd/experiments no longer defines", m[1])
			}
		}
	}
	if found == 0 {
		t.Skip("no abbreviated flag references in DESIGN.md's index")
	}
}

// TestDocAddscFlags: cmd/addsc registers its flags in main, not through
// expflags, so its usage comment is checked against its source: every
// registered flag has a usage line and every usage line a flag, and
// both descriptions of -pes — the one flag whose meaning depends on the
// others — say that it counts real PEs for a -run after -stripmine.
func TestDocAddscFlags(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash("cmd/addsc/main.go"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	registered := map[string]string{} // name -> help text
	for _, m := range regexp.MustCompile(`flag\.\w+\("([a-z-]+)", [^,]+, "([^"]*)"\)`).FindAllStringSubmatch(src, -1) {
		registered[m[1]] = m[2]
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^//\t-([a-z-]+) `).FindAllStringSubmatch(src, -1) {
		documented[m[1]] = true
	}
	if len(registered) < 5 {
		t.Fatalf("only %d flags found in cmd/addsc/main.go — extraction regex rotted?", len(registered))
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("cmd/addsc registers -%s but its usage comment does not list it", name)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("cmd/addsc's usage comment lists -%s, which it no longer registers", name)
		}
	}
	usagePes := regexp.MustCompile(`(?m)^//\t-pes n +(.*\n//\t +.*)`).FindStringSubmatch(src)
	if usagePes == nil || !strings.Contains(usagePes[1], "real") || !strings.Contains(usagePes[1], "-stripmine") {
		t.Errorf("usage comment's -pes entry %q does not say it counts real PEs after -stripmine", usagePes)
	}
	if help := registered["pes"]; !strings.Contains(help, "real") || !strings.Contains(help, "-stripmine") {
		t.Errorf("-pes help %q does not say it counts real PEs after -stripmine", help)
	}
}
