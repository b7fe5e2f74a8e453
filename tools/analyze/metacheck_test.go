package main_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDriver compiles the analyzer binary into a test temp dir.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "torusmesh-analyze")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the analyzer binary: %v\n%s", err, out)
	}
	return bin
}

// runDriver runs the binary over ./... in dir and returns its stdout,
// stderr and exit code.
func runDriver(t *testing.T, bin, dir string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("running the analyzer binary: %v", err)
	}
	return out.String(), errOut.String(), code
}

// writeModule lays out files (slash paths relative to the module root)
// as a throwaway module and returns its directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module seeded\n\ngo 1.24\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSuiteCleanOnRepo is the meta-gate: the analyzer binary, driven
// exactly the way CI drives it (over ./... from the repo root), must
// exit 0 on the repo itself. Any new diagnostic — a stray time.Now, an
// unsorted emitting map range, a Config knob missing from Spec() —
// fails this test before it fails CI.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole root module; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runDriver(t, buildDriver(t), root)
	if code != 0 {
		t.Fatalf("the analyzer suite is not clean over the repo (exit %d):\n%s%s", code, stdout, stderr)
	}
}

// seededObs stands in for internal/obs: metricname matches Registry
// methods by package and type name.
const seededObs = `package obs

type Registry struct{}

type Counter struct{}

func (r *Registry) Counter(name string) *Counter { return &Counter{} }
`

// seededPlace breaks each analyzer's invariant once. wallclock applies
// because the package path ends in internal/place; specdrift because
// the package declares Config with a Spec method.
const seededPlace = `package place

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"seeded/internal/obs"
)

type Config struct {
	Seed int
	Knob int
}

func (cfg Config) Spec() string { return fmt.Sprint(cfg.Seed) }

var reg obs.Registry

var counter = reg.Counter("Bad-Name")

func Violations(cfg Config, m map[string]int) {
	for k, v := range m {
		fmt.Fprintln(os.Stdout, k, v)
	}
	_ = time.Now()
	_ = rand.Intn(cfg.Knob + 1)
}
`

// seededPlaceTest repeats the violations in a test file, where every
// analyzer tolerates them.
const seededPlaceTest = `package place

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"
)

var testCounter = reg.Counter("Test-Bad-Name")

func TestViolations(t *testing.T) {
	for k, v := range map[string]int{"a": 1} {
		fmt.Fprintln(os.Stdout, k, v)
	}
	_ = time.Now()
	_ = rand.Intn(Config{}.Knob + 1)
}
`

// TestSuiteFailsOnViolations proves the gate can fail: one violation
// per analyzer in production code gives exactly those five findings
// and exit 1, and the same violations in a _test.go file add none.
func TestSuiteFailsOnViolations(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/obs/obs.go":          seededObs,
		"internal/place/place.go":      seededPlace,
		"internal/place/place_test.go": seededPlaceTest,
	})
	stdout, stderr, code := runDriver(t, buildDriver(t), dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%sstderr:\n%s", code, stdout, stderr)
	}
	want := []string{
		`internal/place/place.go:21:27: obs instrument name "Bad-Name" does not match the Prometheus grammar`,
		`internal/place/place.go:24:2: map iteration order is randomized but this loop emits output (fmt.Fprintln)`,
		`internal/place/place.go:27:6: direct time.Now call in seeded/internal/place`,
		`internal/place/place.go:28:6: global rand.Intn draws from the shared runtime-seeded source`,
		`internal/place/place.go:28:16: place.Config field Knob is read by the engine but never referenced by Spec()`,
	}
	got := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), stdout)
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d:\n got %s\nwant %s…", i, got[i], want[i])
		}
	}
}

// TestSuiteFailsOnLoadError proves a package that does not type-check
// fails the gate with exit 2 rather than passing as clean.
func TestSuiteFailsOnLoadError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"bad/bad.go": "package bad\n\nvar X int = \"not an int\"\n",
	})
	stdout, stderr, code := runDriver(t, buildDriver(t), dir)
	if code != 2 {
		t.Fatalf("exit %d, want 2\nstdout:\n%sstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("a load failure printed findings:\n%s", stdout)
	}
}
