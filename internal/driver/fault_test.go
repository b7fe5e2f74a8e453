// Fault-tolerance coverage: an in-process fault-injecting worker that
// drops, duplicates, delays and corrupts shard streams, asserting the
// driver's retries and straggler re-issues still converge to the
// bit-for-bit merged artifact.

package driver_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"torusmesh/internal/census"
	"torusmesh/internal/driver"
)

// Fault kinds the injecting worker can apply to one attempt.
const (
	faultNone      = ""
	faultDrop      = "drop"      // swallow every other record, then return cleanly
	faultDuplicate = "duplicate" // emit every record twice
	faultCorrupt   = "corrupt"   // mangle records so driver validation rejects them
	faultCrash     = "crash"     // error out after a few records
	faultHang      = "hang"      // emit nothing and block until cancelled
)

// faultWorker wraps InProcess and injects the configured fault on
// specific (shard, attempt) executions; all other executions run
// clean. It also tallies attempts per shard.
type faultWorker struct {
	faults map[[2]int]string // (shard, attempt) -> fault kind

	mu       sync.Mutex
	attempts map[int]int
}

func newFaultWorker(faults map[[2]int]string) *faultWorker {
	return &faultWorker{faults: faults, attempts: map[int]int{}}
}

func (w *faultWorker) attemptCount(shard int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.attempts[shard]
}

func (w *faultWorker) Run(ctx context.Context, job driver.Job, emit func(census.PairResult) error) error {
	w.mu.Lock()
	w.attempts[job.Shard]++
	w.mu.Unlock()
	fault := w.faults[[2]int{job.Shard, job.Attempt}]

	if fault == faultHang {
		<-ctx.Done()
		return ctx.Err()
	}
	seen := 0
	wrapped := func(r census.PairResult) error {
		seen++
		switch fault {
		case faultDrop:
			if seen%2 == 0 {
				return nil // swallowed: the stream silently loses records
			}
		case faultDuplicate:
			if err := emit(r); err != nil {
				return err
			}
		case faultCorrupt:
			r.Guest = "corrupt(" + r.Guest + ")"
		case faultCrash:
			if seen > 3 {
				return fmt.Errorf("injected crash after %d records", seen)
			}
		}
		return emit(r)
	}
	err := driver.InProcess{}.Run(ctx, job, wrapped)
	if fault == faultCrash && err == nil {
		// Stripes shorter than the crash threshold finish clean; make
		// the attempt fail anyway so the retry path is exercised.
		return fmt.Errorf("injected crash at end of stream")
	}
	return err
}

// TestFaultsConvergeBitForBit is the headline fault test: first
// attempts across the shards drop, duplicate, corrupt and crash, and
// after retries the merged artifact is still byte-identical to the
// unsharded census — with every pair delivered to OnResult exactly
// once.
func TestFaultsConvergeBitForBit(t *testing.T) {
	cfg := template(36, 0)
	want := encode(t, unsharded(t, cfg))
	w := newFaultWorker(map[[2]int]string{
		{0, 0}: faultDrop,
		{1, 0}: faultDuplicate,
		{2, 0}: faultCorrupt,
		{3, 0}: faultCrash,
		{4, 0}: faultCrash,
		{4, 1}: faultDrop, // a shard that fails twice in different ways
	})
	var mu sync.Mutex
	emitted := map[int]int{}
	got := encode(t, run(t, driver.Plan{
		Config: cfg, Shards: 5, Workers: 3, Worker: w,
		Backoff: fastRetry,
		OnResult: func(r *census.PairResult) {
			mu.Lock()
			emitted[r.Index]++
			mu.Unlock()
		},
	}))
	if !bytes.Equal(want, got) {
		t.Error("faulted driver census differs from unsharded census")
	}
	space := len(emitted)
	for idx, count := range emitted {
		if count != 1 {
			t.Errorf("pair %d reached OnResult %d times", idx, count)
		}
		if idx < 0 {
			t.Errorf("negative pair index %d", idx)
		}
	}
	if space == 0 {
		t.Fatal("nothing was emitted")
	}
	// Every faulted shard must have retried at least once; duplicate
	// streams fold without a retry (dedup absorbs them).
	for _, s := range []int{0, 2, 3, 4} {
		if w.attemptCount(s) < 2 {
			t.Errorf("shard %d ran %d attempt(s), want a retry", s, w.attemptCount(s))
		}
	}
	if w.attemptCount(1) != 1 {
		t.Errorf("duplicate-stream shard retried (%d attempts); dedup should absorb it", w.attemptCount(1))
	}
	if w.attemptCount(4) < 3 {
		t.Errorf("twice-failing shard 4 ran %d attempt(s), want 3", w.attemptCount(4))
	}
}

// TestCrashKeepsDeliveredRecords: records streamed before a lost one
// stay folded, and the retry's Skip filter prevents their
// re-evaluation — only the pair that never reached the driver runs
// again.
func TestCrashKeepsDeliveredRecords(t *testing.T) {
	cfg := template(24, 0)
	want := encode(t, unsharded(t, cfg))
	var mu sync.Mutex
	evaluated := map[int]int{}
	swallowed := -1
	counting := workerFunc(func(ctx context.Context, job driver.Job, emit func(census.PairResult) error) error {
		wrapped := func(r census.PairResult) error {
			mu.Lock()
			evaluated[r.Index]++
			drop := job.Shard == 0 && job.Attempt == 0 && swallowed == -1
			if drop {
				swallowed = r.Index
			}
			mu.Unlock()
			if drop {
				return nil // lost in transit: folded by nobody
			}
			return emit(r)
		}
		return driver.InProcess{}.Run(ctx, job, wrapped)
	})
	got := encode(t, run(t, driver.Plan{
		Config: cfg, Shards: 2, Workers: 2, Worker: counting, Backoff: fastRetry,
	}))
	if !bytes.Equal(want, got) {
		t.Error("census differs from unsharded census")
	}
	if swallowed < 0 {
		t.Fatal("no record was swallowed")
	}
	for idx, n := range evaluated {
		want := 1
		if idx == swallowed {
			want = 2 // once dropped, once on the retry
		}
		if n != want {
			t.Errorf("pair %d evaluated %d times, want %d", idx, n, want)
		}
	}
}

// TestStragglerReissue: a first attempt that hangs forever is re-issued
// once the other shards establish a median wall time, and the re-issued
// attempt completes the census bit for bit.
func TestStragglerReissue(t *testing.T) {
	cfg := template(24, 0)
	want := encode(t, unsharded(t, cfg))
	w := newFaultWorker(map[[2]int]string{
		{3, 0}: faultHang,
	})
	got := encode(t, run(t, driver.Plan{
		Config: cfg, Shards: 4, Workers: 3, Worker: w,
		Backoff:           fastRetry,
		Retries:           -1, // no failure retries: only the straggler policy can save shard 3
		StragglerFactor:   3,
		StragglerInterval: 5 * time.Millisecond,
	}))
	if !bytes.Equal(want, got) {
		t.Error("straggler-rescued census differs from unsharded census")
	}
	if w.attemptCount(3) < 2 {
		t.Errorf("hanging shard ran %d attempt(s), want a straggler re-issue", w.attemptCount(3))
	}
}

// TestRetriesExhausted: a shard that fails every attempt aborts the run
// with an error naming the shard.
func TestRetriesExhausted(t *testing.T) {
	cfg := template(24, 0)
	broken := workerFunc(func(ctx context.Context, job driver.Job, emit func(census.PairResult) error) error {
		if job.Shard == 1 {
			return fmt.Errorf("injected permanent failure")
		}
		return driver.InProcess{}.Run(ctx, job, emit)
	})
	d, err := driver.New(driver.Plan{
		Config: cfg, Shards: 3, Workers: 2, Worker: broken, Retries: 1, Backoff: fastRetry,
	})
	if err != nil {
		t.Fatalf("driver.New: %v", err)
	}
	_, err = d.Run(context.Background())
	if err == nil {
		t.Fatal("run with a permanently failing shard succeeded")
	}
	if !strings.Contains(err.Error(), "shard 1/3") || !strings.Contains(err.Error(), "injected permanent failure") {
		t.Errorf("error does not name the failing shard and cause: %v", err)
	}
}

// TestCorruptIndexRejected: records pointing outside the pair space or
// into the wrong stripe fail the attempt.
func TestCorruptIndexRejected(t *testing.T) {
	cfg := template(24, 0)
	want := encode(t, unsharded(t, cfg))
	mangle := workerFunc(func(ctx context.Context, job driver.Job, emit func(census.PairResult) error) error {
		first := true
		wrapped := func(r census.PairResult) error {
			if job.Attempt == 0 && first {
				first = false
				bad := r
				bad.Index += 1 << 20 // far outside the space
				if err := emit(bad); err != nil {
					return err
				}
			}
			return emit(r)
		}
		return driver.InProcess{}.Run(ctx, job, wrapped)
	})
	got := encode(t, run(t, driver.Plan{
		Config: cfg, Shards: 2, Workers: 2, Worker: mangle, Backoff: fastRetry,
	}))
	if !bytes.Equal(want, got) {
		t.Error("census differs after corrupt-index retries")
	}
}

// TestStragglerClampLoneWorker: with fewer than two completed shards
// there is no fleet median, so the straggler cutoff must stay disarmed
// — a healthy worker that is merely slow (the only shard still
// running) must not be re-issued and cancelled off a 0/1-sample
// "median". Before the clamp this scenario re-issued shard 1 as soon
// as fast shard 0 landed its single duration sample.
func TestStragglerClampLoneWorker(t *testing.T) {
	cfg := template(24, 0)
	want := encode(t, unsharded(t, cfg))
	slow := workerFunc(func(ctx context.Context, job driver.Job, emit func(census.PairResult) error) error {
		if job.Shard == 1 {
			// Far past any cutoff a 1-sample median would set, but
			// healthy: it completes on its own.
			select {
			case <-time.After(150 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return driver.InProcess{}.Run(ctx, job, emit)
	})
	w := newFaultWorker(nil)
	counting := workerFunc(func(ctx context.Context, job driver.Job, emit func(census.PairResult) error) error {
		w.mu.Lock()
		w.attempts[job.Shard]++
		w.mu.Unlock()
		return slow(ctx, job, emit)
	})
	got := encode(t, run(t, driver.Plan{
		Config: cfg, Shards: 2, Workers: 2, Worker: counting,
		Backoff:           fastRetry,
		Retries:           -1,
		StragglerFactor:   1.5,
		StragglerInterval: 5 * time.Millisecond,
	}))
	if !bytes.Equal(want, got) {
		t.Error("census differs from unsharded census")
	}
	if n := w.attemptCount(1); n != 1 {
		t.Errorf("slow lone shard ran %d attempt(s), want exactly 1 (cutoff must not arm on one completed shard)", n)
	}
}

// TestInProcessReturnsEmitError pins the emit-error hand-off: the first
// error emit returns stops the census on every worker, and it is the
// error InProcess.Run returns rather than census.ErrInterrupted.
func TestInProcessReturnsEmitError(t *testing.T) {
	errStop := errors.New("injected emit failure")
	seen := 0
	emit := func(census.PairResult) error {
		seen++
		if seen == 3 {
			return errStop
		}
		return nil
	}
	err := driver.InProcess{}.Run(context.Background(), driver.Job{Config: template(36, 0)}, emit)
	if !errors.Is(err, errStop) {
		t.Fatalf("Run returned %v, want the emit error", err)
	}
	if seen != 3 {
		t.Errorf("emit called %d times, want 3: records kept flowing after the emit error", seen)
	}
}
