package mincore

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

// waitSched spins (yielding) until cond holds. The scheduler's state
// transitions are synchronous under its mutex, so this only bridges the
// goroutine-launch gap — no timing assumptions, no sleeps.
func waitSched(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("scheduler condition not reached")
		}
		runtime.Gosched()
	}
}

// enqueueBuild files one build request in a goroutine. When granted it
// reports its tenant on granted, holds the slot until it can receive
// from release, then gives the slot back. Errors go to errs.
func enqueueBuild(b *buildScheduler, tenant string, weight float64,
	granted chan<- string, release <-chan struct{}, errs chan<- error) {
	go func() {
		_, g, err := b.acquire(context.Background(), tenant, weight)
		if err != nil {
			errs <- err
			return
		}
		granted <- tenant
		<-release
		g.release()
	}()
}

// mustAcquire grabs a slot synchronously or fails the test.
func mustAcquire(t *testing.T, b *buildScheduler, tenant string, weight float64) *schedGrant {
	t.Helper()
	_, g, err := b.acquire(context.Background(), tenant, weight)
	if err != nil {
		t.Fatalf("%s acquire: %v", tenant, err)
	}
	return g
}

// fillQueue enqueues n requests for one tenant, waiting after each so
// the scheduler sees a deterministic arrival order.
func fillQueue(t *testing.T, b *buildScheduler, tenant string, weight float64, n int,
	granted chan<- string, release <-chan struct{}, errs chan<- error) {
	t.Helper()
	for i := 0; i < n; i++ {
		enqueueBuild(b, tenant, weight, granted, release, errs)
		want := i + 1
		waitSched(t, func() bool { return b.stats().Pending[tenant] == want })
	}
}

// drainGrants collects the next n grants in order, releasing each slot
// after recording it. With one build slot, exactly one goroutine at a
// time sits between its grant and the release handshake, so the
// recorded order is the scheduler's grant order.
func drainGrants(t *testing.T, n int, granted <-chan string, release chan<- struct{}, errs <-chan error) []string {
	t.Helper()
	order := make([]string, 0, n)
	for i := 0; i < n; i++ {
		select {
		case id := <-granted:
			order = append(order, id)
			release <- struct{}{}
		case err := <-errs:
			t.Fatalf("grant %d: unexpected acquire error: %v", i, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("grant %d: scheduler stalled; got %v", i, order)
		}
	}
	return order
}

// TestSchedulerLightTenantNotStarved is the starvation bound: a tenant
// with a deep ε-sweep backlog cannot delay another tenant's head
// request by more than one round. The test occupies the single build
// slot with a plug, queues 8 "heavy" requests then 2 "light" ones, and
// checks the grant order alternates while the light tenant is
// backlogged. Grant order is a pure function of arrival order (the
// virtual clock is the grant sequence number), so the expectation is
// exact, not statistical.
func TestSchedulerLightTenantNotStarved(t *testing.T) {
	b := newBuildScheduler(1, 32, 0, nil)
	plug := mustAcquire(t, b, "plug", 1)
	granted := make(chan string)
	release := make(chan struct{})
	errs := make(chan error, 16)

	fillQueue(t, b, "heavy", 1, 8, granted, release, errs)
	fillQueue(t, b, "light", 1, 2, granted, release, errs)

	plug.release() // free the plug; dispatching starts
	order := drainGrants(t, 10, granted, release, errs)

	want := []string{"heavy", "light", "heavy", "light",
		"heavy", "heavy", "heavy", "heavy", "heavy", "heavy"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
	st := b.stats()
	if st.Grants != 11 { // plug + 10
		t.Errorf("total grants = %d, want 11", st.Grants)
	}
	if st.TenantGrants["heavy"] != 8 || st.TenantGrants["light"] != 2 {
		t.Errorf("per-tenant grants = %v", st.TenantGrants)
	}
	if st.Rounds == 0 {
		t.Error("scheduler completed no rounds")
	}
}

// TestSchedulerWeightedDraining: a weight-2 tenant's backlog drains two
// builds per round against a weight-1 tenant's one, even when the
// single build slot interrupts its turn mid-deficit.
func TestSchedulerWeightedDraining(t *testing.T) {
	b := newBuildScheduler(1, 32, 0, nil)
	plug := mustAcquire(t, b, "plug", 1)
	granted := make(chan string)
	release := make(chan struct{})
	errs := make(chan error, 16)

	fillQueue(t, b, "gold", 2, 6, granted, release, errs)
	fillQueue(t, b, "std", 1, 6, granted, release, errs)

	plug.release()
	order := drainGrants(t, 12, granted, release, errs)

	want := []string{"gold", "gold", "std", "gold", "gold", "std",
		"gold", "gold", "std", "std", "std", "std"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

// TestSchedulerShedsPerTenantBacklog: the per-tenant queue bound sheds
// with ErrOverloaded without touching other tenants' queues.
func TestSchedulerShedsPerTenantBacklog(t *testing.T) {
	b := newBuildScheduler(1, 2, 0, nil)
	plug := mustAcquire(t, b, "plug", 1)
	granted := make(chan string)
	release := make(chan struct{})
	errs := make(chan error, 16)

	fillQueue(t, b, "noisy", 1, 2, granted, release, errs)
	if _, _, err := b.acquire(context.Background(), "noisy", 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third noisy acquire = %v, want ErrOverloaded", err)
	}
	// Another tenant still has its full queue available.
	fillQueue(t, b, "quiet", 1, 2, granted, release, errs)

	plug.release()
	order := drainGrants(t, 4, granted, release, errs)
	want := []string{"noisy", "quiet", "noisy", "quiet"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

// TestSchedulerZeroQueueFastFails: with maxQueued = 0 nothing waits —
// an acquire while the only slot is held sheds at once instead of
// queueing. The deadline turns a regression into a failure, not a hang.
func TestSchedulerZeroQueueFastFails(t *testing.T) {
	b := newBuildScheduler(1, 0, 0, nil)
	held := mustAcquire(t, b, "", 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, _, err := b.acquire(ctx, "", 1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("acquire with the slot held = %v, want ErrOverloaded", err)
	}
	if st := b.stats(); st.Pending[""] != 0 || st.Inflight != 1 {
		t.Fatalf("after shed: pending=%d inflight=%d, want 0/1", st.Pending[""], st.Inflight)
	}

	held.release()
	_, g, err := b.acquire(ctx, "", 1)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.release()
}

// TestSchedulerCancelRemovesWaiter: a context-cancelled waiter leaves
// the queue; the tenant's ring entry disappears when emptied.
func TestSchedulerCancelRemovesWaiter(t *testing.T) {
	b := newBuildScheduler(1, 8, 0, nil)
	plug := mustAcquire(t, b, "plug", 1)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := b.acquire(ctx, "x", 1)
		errc <- err
	}()
	waitSched(t, func() bool { return b.stats().Pending["x"] == 1 })

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	waitSched(t, func() bool { return b.stats().Pending["x"] == 0 })

	// The freed plug slot must not be granted to the cancelled waiter.
	plug.release()
	st := b.stats()
	if st.Grants != 1 || st.Inflight != 0 {
		t.Errorf("after cancel: grants=%d inflight=%d, want 1/0", st.Grants, st.Inflight)
	}
}

// TestSchedulerEvictFailsWaiters: evicting a tenant (deletion) fails
// its queued requests with the supplied error and drops its queue.
func TestSchedulerEvictFailsWaiters(t *testing.T) {
	b := newBuildScheduler(1, 8, 0, nil)
	plug := mustAcquire(t, b, "plug", 1)
	boom := errors.New("tenant deleted")
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := b.acquire(context.Background(), "dead", 1)
			errc <- err
		}()
		want := i + 1
		waitSched(t, func() bool { return b.stats().Pending["dead"] == want })
	}

	b.evict("dead", boom)
	for i := 0; i < 2; i++ {
		if err := <-errc; !errors.Is(err, boom) {
			t.Fatalf("evicted acquire = %v, want %v", err, boom)
		}
	}
	if _, ok := b.stats().Pending["dead"]; ok {
		t.Error("evicted tenant still has scheduler state")
	}
	plug.release()
	if st := b.stats(); st.Inflight != 0 || st.Grants != 1 {
		t.Errorf("after evict+release: %+v", st)
	}
}

// TestClampWeight: every weight entering the scheduler is sanitized —
// NaN and non-positive values default to 1, the rest are clamped into
// [minSchedWeight, maxSchedWeight].
func TestClampWeight(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{math.NaN(), 1},
		{0, 1},
		{-3, 1},
		{math.Inf(-1), 1},
		{1e-12, minSchedWeight},
		{minSchedWeight, minSchedWeight},
		{0.5, 0.5},
		{1, 1},
		{2, 2},
		{maxSchedWeight, maxSchedWeight},
		{1e9, maxSchedWeight},
		{math.Inf(1), maxSchedWeight},
	}
	for _, c := range cases {
		if got := clampWeight(c.in); got != c.want {
			t.Errorf("clampWeight(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSchedulerPathologicalWeightTerminates: a tiny positive weight
// (which pre-clamp made dispatch spin ~1/weight ring passes under the
// lock) and a NaN weight (pre-clamp a no-progress infinite loop, since
// every NaN comparison is false) are both granted promptly, and the
// dispatch work stays bounded.
func TestSchedulerPathologicalWeightTerminates(t *testing.T) {
	b := newBuildScheduler(1, 4, 0, nil)
	for _, w := range []float64{1e-12, math.NaN(), math.Inf(1), -1} {
		mustAcquire(t, b, "t", w).release()
	}
	// Worst case per grant is 1/minSchedWeight ring passes; four grants
	// must stay well under that times four.
	if st := b.stats(); st.Grants != 4 || st.Rounds > 4.0/minSchedWeight {
		t.Errorf("after pathological weights: grants=%d rounds=%d", st.Grants, st.Rounds)
	}
}
