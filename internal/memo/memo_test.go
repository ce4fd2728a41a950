package memo

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func newTestMemo(budget int64) *Memo[string, int] {
	return New[string, int](Config[int]{
		Name:   "test",
		Budget: budget,
		Size:   func(v int) int64 { return int64(v) },
	})
}

func TestDoComputesOnceAndCountsHits(t *testing.T) {
	m := newTestMemo(0)
	calls := 0
	fn := func() (int, error) { calls++; return 7, nil }
	for i := 0; i < 3; i++ {
		v, err := m.Do("k", fn)
		if err != nil || v != 7 {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	if s := m.Stats(); s != (Stats{Hits: 2, Misses: 1, Bytes: 7}) {
		t.Fatalf("stats = %+v", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	m := newTestMemo(0)
	boom := errors.New("boom")
	if _, err := m.Do("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	v, err := m.Do("k", func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("retry after error = %v, %v; want a fresh computation", v, err)
	}
	if s := m.Stats(); s.Misses != 2 || s.Hits != 0 || s.Bytes != 3 {
		t.Fatalf("stats = %+v, want 2 misses, 0 hits, 3 bytes", s)
	}
}

func TestPanicsBecomeErrors(t *testing.T) {
	m := newTestMemo(0)
	_, err := m.Do("k", func() (int, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "test: computation panicked: kaboom") {
		t.Fatalf("err = %v, want the panic as an error", err)
	}
	if v, err := m.Do("k", func() (int, error) { return 1, nil }); err != nil || v != 1 {
		t.Fatalf("key poisoned after panic: %v, %v", v, err)
	}
}

// TestBudgetDeclinesNewKeys: every value is retained until the budget
// is reached, the one that crosses it included; from then on new keys
// are declined without computing, while retained keys still hit.
func TestBudgetDeclinesNewKeys(t *testing.T) {
	m := newTestMemo(10)
	calls := 0
	big := func() (int, error) { calls++; return 8, nil }
	for _, k := range []string{"a", "b"} { // b crosses the budget: 16 > 10
		if v, err := m.Do(k, big); err != nil || v != 8 {
			t.Fatalf("Do(%s) = %v, %v", k, v, err)
		}
	}
	if _, err := m.Do("c", big); !errors.Is(err, ErrFull) {
		t.Fatalf("Do(c) over budget: err = %v, want ErrFull", err)
	}
	if _, err := m.Do("a", big); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (c declined, a retained)", calls)
	}
	if s := m.Stats(); s != (Stats{Hits: 1, Misses: 2, Bytes: 16}) {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses (a decline is neither), 16 bytes", s)
	}
}

// TestConcurrentCallersShareOneFlight is the singleflight contract under
// -race: one computation, one miss, every other caller a hit.
func TestConcurrentCallersShareOneFlight(t *testing.T) {
	hits := obs.NewCounter("memo.test_hits", "hits", "test")
	misses := obs.NewCounter("memo.test_misses", "misses", "test")
	obs.Reset()
	obs.EnableMetrics()
	defer func() {
		obs.DisableMetrics()
		obs.Reset()
	}()
	m := New[string, int](Config[int]{Name: "test", Hits: hits, Misses: misses})
	release := make(chan struct{})
	var calls sync.WaitGroup
	calls.Add(1)
	const callers = 8
	got := make([]int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = m.Do("k", func() (int, error) {
				calls.Done() // a second call would panic the WaitGroup
				<-release
				return 42, nil
			})
		}(i)
	}
	calls.Wait()
	close(release)
	wg.Wait()
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	if s := m.Stats(); s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits", s, callers-1)
	}
	if hits.Value() != callers-1 || misses.Value() != 1 {
		t.Fatalf("obs mirrors = %d hits, %d misses", hits.Value(), misses.Value())
	}
}

// TestWaitersShareAFailedFlight: callers waiting on a failing flight get
// its error and count as misses; the key is free again afterwards.
func TestWaitersShareAFailedFlight(t *testing.T) {
	m := newTestMemo(0)
	started := make(chan struct{})
	release := make(chan struct{})
	boom := errors.New("boom")
	first := make(chan error, 1)
	go func() {
		_, err := m.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		first <- err
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, err := m.Do("k", func() (int, error) { return 1, nil })
		waiter <- err
	}()
	// The waiter either joins the failing flight (boom) or arrives after
	// it was forgotten and computes afresh (nil); both are misses.
	close(release)
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("computing caller err = %v", err)
	}
	if err := <-waiter; err != nil && !errors.Is(err, boom) {
		t.Fatalf("waiter err = %v", err)
	}
	if s := m.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses", s)
	}
}

func TestReset(t *testing.T) {
	m := newTestMemo(0)
	calls := 0
	fn := func() (int, error) { calls++; return 5, nil }
	m.Do("k", fn)
	m.Reset()
	if s := m.Stats(); s != (Stats{}) {
		t.Fatalf("stats after Reset = %+v", s)
	}
	m.Do("k", fn)
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2 (Reset forgets)", calls)
	}
}

// TestHeldEntrySurvivesUntilLastRelease: a value computed under two
// holds stays until the second holder releases, then leaves the memo
// and the budget, and the next caller recomputes.
func TestHeldEntrySurvivesUntilLastRelease(t *testing.T) {
	m := newTestMemo(10)
	calls := 0
	fn := func() (int, error) { calls++; return 8, nil }
	r1 := m.Hold("k")
	r2 := m.Hold("k")
	if _, err := m.Do("k", fn); err != nil {
		t.Fatal(err)
	}
	r1()
	if b := m.Stats().Bytes; b != 8 {
		t.Fatalf("after the first release: %d bytes retained; want the value's 8 kept for the second holder", b)
	}
	if _, err := m.Do("k", fn); err != nil || calls != 1 {
		t.Fatalf("second holder's read: err %v, %d computations; want a hit", err, calls)
	}
	r2()
	if b := m.Stats().Bytes; b != 0 {
		t.Fatalf("after the last release: %d bytes retained; want none", b)
	}
	// The budget is free again: a new key is computed, not declined.
	if _, err := m.Do("other", fn); err != nil {
		t.Fatalf("new key after the release: %v", err)
	}
	if _, err := m.Do("k", fn); err != nil || calls != 3 {
		t.Fatalf("released key: err %v, %d computations; want it recomputed", err, calls)
	}
}

// TestUnheldAndEarlierEntriesAreRetained: a value computed with no
// holder stays for good, and so does one that was there before a hold.
func TestUnheldAndEarlierEntriesAreRetained(t *testing.T) {
	m := newTestMemo(0)
	if _, err := m.Do("free", func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	release := m.Hold("free")
	if _, err := m.Do("free", func() (int, error) { return 0, errors.New("recomputed") }); err != nil {
		t.Fatal(err)
	}
	release()
	if v, err := m.Do("free", func() (int, error) { return 0, errors.New("recomputed") }); err != nil || v != 2 {
		t.Fatalf("after the release: Do = %v, %v; want the value from before the hold", v, err)
	}
	if b := m.Stats().Bytes; b != 2 {
		t.Fatalf("%d bytes retained; want the value's 2", b)
	}
}

// TestFailedFlightUnderHoldLeavesNothing: a held key whose computation
// fails or panics keeps no entry, and its release finds nothing to do.
func TestFailedFlightUnderHoldLeavesNothing(t *testing.T) {
	m := newTestMemo(0)
	release := m.Hold("k")
	if _, err := m.Do("k", func() (int, error) { return 5, errors.New("boom") }); err == nil {
		t.Fatal("want the error")
	}
	if _, err := m.Do("k", func() (int, error) { panic("kaboom") }); err == nil {
		t.Fatal("want the panic as an error")
	}
	if b := m.Stats().Bytes; b != 0 {
		t.Fatalf("%d bytes retained after failed flights; want none", b)
	}
	release()
	if b := m.Stats().Bytes; b != 0 {
		t.Fatalf("%d bytes retained after the release; want none", b)
	}
	if v, err := m.Do("k", func() (int, error) { return 3, nil }); err != nil || v != 3 {
		t.Fatalf("after the release: Do = %v, %v; want a fresh computation", v, err)
	}
}

// TestReleaseDuringFlight: when the last holder releases while the
// key's flight still runs, the flight's value is handed to its callers
// and then dropped.
func TestReleaseDuringFlight(t *testing.T) {
	m := newTestMemo(0)
	release := m.Hold("k")
	started, finish := make(chan struct{}), make(chan struct{})
	got := make(chan int, 1)
	go func() {
		v, _ := m.Do("k", func() (int, error) {
			close(started)
			<-finish
			return 4, nil
		})
		got <- v
	}()
	<-started
	release()
	close(finish)
	if v := <-got; v != 4 {
		t.Fatalf("flight returned %d, want 4", v)
	}
	if b := m.Stats().Bytes; b != 0 {
		t.Fatalf("%d bytes retained; want the released key's value dropped", b)
	}
	if v, _ := m.Do("k", func() (int, error) { return 6, nil }); v != 6 {
		t.Fatalf("after the release: Do = %d; want a fresh computation", v)
	}
}

// TestConcurrentHolders: eight goroutines hold, read and release a few
// shared keys under -race; every read sees the key's value, and once
// every hold is released nothing is retained.
func TestConcurrentHolders(t *testing.T) {
	m := newTestMemo(0)
	keys := []string{"a", "bb", "ccc"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				k := keys[(g+round)%len(keys)]
				release := m.Hold(k)
				v, err := m.Do(k, func() (int, error) { return len(k), nil })
				if err != nil || v != len(k) {
					t.Errorf("goroutine %d: Do(%s) = %d, %v", g, k, v, err)
				}
				release()
			}
		}(g)
	}
	wg.Wait()
	if b := m.Stats().Bytes; b != 0 {
		t.Fatalf("%d bytes retained after every release; want none", b)
	}
	misses := m.Stats().Misses
	for _, k := range keys {
		if _, err := m.Do(k, func() (int, error) { return len(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Stats().Misses - misses; got != int64(len(keys)) {
		t.Fatalf("reading the %d released keys again: %d misses; want each recomputed", len(keys), got)
	}
}
