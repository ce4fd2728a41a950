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
