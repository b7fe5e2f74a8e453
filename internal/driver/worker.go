// The two Worker implementations the driver ships with. InProcess runs
// shard jobs as census.Run calls inside the driver's own process — the
// test and single-machine form. Subprocess execs a sweep binary in
// -worker mode and folds the NDJSON stream it emits on stdout — the
// production form, and the shape a multi-machine transport (ssh, a
// container scheduler) would imitate: anything that can exec a binary
// and pipe bytes back can be a worker.

package driver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync/atomic"

	"torusmesh/internal/census"
)

// InProcess evaluates shard jobs with census.Run in this process,
// streaming each pair's record to the driver as it completes. A
// cancelled context stops the run between pairs (census.Config's
// Interrupt hook), so a straggler sibling that lost its race, or a
// torn-down run, does not keep a worker slot busy evaluating pairs
// nobody will fold.
type InProcess struct{}

// Run implements Worker.
func (InProcess) Run(ctx context.Context, job Job, emit func(census.PairResult) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	cfg := job.Config
	// census.Run serializes OnResult calls, but Interrupt runs on every
	// census worker, so the first emit error is handed over atomically.
	var emitErr atomic.Pointer[error]
	failed := func() error {
		if p := emitErr.Load(); p != nil {
			return *p
		}
		return nil
	}
	cfg.OnResult = func(r *census.PairResult) {
		if emitErr.Load() != nil {
			return
		}
		if err := emit(*r); err != nil {
			emitErr.Store(&err)
		}
	}
	cfg.Interrupt = func() bool { return ctx.Err() != nil || emitErr.Load() != nil }
	if _, err := census.Run(cfg); err != nil {
		if ctxErr := ctx.Err(); errors.Is(err, census.ErrInterrupted) && ctxErr != nil {
			return ctxErr
		}
		if emitErr := failed(); errors.Is(err, census.ErrInterrupted) && emitErr != nil {
			return emitErr
		}
		return err
	}
	return failed()
}

// Subprocess evaluates shard jobs by exec'ing a sweep binary in
// -worker mode and reading the NDJSON stream from its stdout. The
// creator supplies the base invocation (size, maxdim, metric flags, a
// -resume journal, testing hooks); the per-job "-worker -shard i/m"
// arguments are appended here. Safe for concurrent Run calls.
type Subprocess struct {
	// Bin is the sweep binary path.
	Bin string
	// Args is the base argument list; it must describe the same census
	// as the plan's template (the stream header is checked against it).
	Args []string
}

// Run implements Worker.
func (w Subprocess) Run(ctx context.Context, job Job, emit func(census.PairResult) error) error {
	args := append(append([]string(nil), w.Args...),
		"-worker", "-shard", fmt.Sprintf("%d/%d", job.Shard, job.Shards))
	cmd := exec.CommandContext(ctx, w.Bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	streamErr := w.readStream(job, stdout, emit)
	if streamErr != nil {
		// The stream (or a record the driver rejected) is already
		// useless; kill the worker rather than let it spend the rest
		// of its shard computing pairs nobody will fold.
		cmd.Process.Kill()
	}
	// Always drain stdout before Wait so a still-writing worker cannot
	// block on a full pipe, and always Wait so the process is reaped.
	io.Copy(io.Discard, stdout)
	waitErr := cmd.Wait()
	if streamErr != nil {
		return fmt.Errorf("%v%s", streamErr, stderrTail(&stderr))
	}
	if waitErr != nil {
		return fmt.Errorf("%s %s: %v%s", w.Bin, strings.Join(args, " "), waitErr, stderrTail(&stderr))
	}
	return nil
}

// readStream folds the worker's NDJSON stream: header validation, then
// every record into emit. A header that disagrees with the job's
// census template means the base Args describe a different sweep — a
// wiring bug worth failing loudly on.
func (w Subprocess) readStream(job Job, stdout io.Reader, emit func(census.PairResult) error) error {
	sr, err := census.NewStreamReader(stdout)
	if err != nil {
		return err
	}
	if sr.Header.Shard != job.Shard || sr.Header.Shards != job.Shards {
		return fmt.Errorf("driver: worker streamed shard %d/%d, job is %d/%d",
			sr.Header.Shard, sr.Header.Shards, job.Shard, job.Shards)
	}
	if err := sr.Header.SameCensus(job.Config.StreamHeader()); err != nil {
		return fmt.Errorf("driver: worker stream does not match the plan: %v", err)
	}
	for {
		rec, err := sr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := emit(*rec); err != nil {
			return err
		}
	}
}

// stderrTail renders the last chunk of a worker's stderr for error
// messages, or "" when it wrote nothing.
func stderrTail(buf *bytes.Buffer) string {
	s := strings.TrimSpace(buf.String())
	if s == "" {
		return ""
	}
	const max = 512
	if len(s) > max {
		s = "..." + s[len(s)-max:]
	}
	return "; worker stderr: " + s
}
