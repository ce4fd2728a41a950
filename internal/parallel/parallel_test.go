package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, jobs := range []int{1, 2, 7, 128} {
		out, err := MapN(jobs, items, func(_ int, v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapPartialResultsOnError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4}
	for _, jobs := range []int{1, 3} {
		out, err := MapN(jobs, items, func(_ int, v int) (string, error) {
			if v%2 == 1 {
				return fmt.Sprintf("partial%d", v), fmt.Errorf("item %d failed", v)
			}
			return fmt.Sprintf("ok%d", v), nil
		})
		if err == nil {
			t.Fatal("want error")
		}
		// Every item was attempted; failures keep what fn returned with
		// the error.
		want := []string{"ok0", "partial1", "ok2", "partial3", "ok4"}
		for i, v := range out {
			if v != want[i] {
				t.Fatalf("jobs %d: out[%d] = %q, want %q", jobs, i, v, want[i])
			}
		}
		// Both failures are reported, in index order.
		msg := err.Error()
		if !strings.Contains(msg, "item 1 failed") || !strings.Contains(msg, "item 3 failed") {
			t.Fatalf("jobs %d: error %q misses a failure", jobs, msg)
		}
		if strings.Index(msg, "item 1") > strings.Index(msg, "item 3") {
			t.Fatalf("jobs %d: error %q not in index order", jobs, msg)
		}
	}
}

// TestMapReraisesPanicOnCaller: a panicking item is not turned into an
// error. Its panic reaches the calling goroutine at any worker count,
// and with several panicking items it is the lowest index, the one a
// serial loop stops at.
func TestMapReraisesPanicOnCaller(t *testing.T) {
	for _, jobs := range []int{1, 3} {
		got := func() (p any) {
			defer func() { p = recover() }()
			MapN(jobs, []int{0, 1, 2, 3}, func(_ int, v int) (int, error) {
				if v == 1 || v == 3 {
					panic(fmt.Sprintf("bad cell %d", v))
				}
				return v, nil
			})
			return nil
		}()
		if got == nil || !strings.Contains(fmt.Sprint(got), "bad cell 1") {
			t.Fatalf("jobs=%d: recovered %v, want item 1's panic on the caller", jobs, got)
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const jobs = 3
	var cur, peak atomic.Int64
	items := make([]int, 64)
	_, err := MapN(jobs, items, func(int, int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Fatalf("peak concurrency %d exceeds budget %d", p, jobs)
	}
}

func TestSetJobs(t *testing.T) {
	prev := SetJobs(5)
	defer SetJobs(prev)
	if Jobs() != 5 {
		t.Fatalf("Jobs() = %d, want 5", Jobs())
	}
	if got := SetJobs(0); got != 5 {
		t.Fatalf("SetJobs returned %d, want 5", got)
	}
	if Jobs() < 1 {
		t.Fatalf("default Jobs() = %d, want >= 1", Jobs())
	}
}

func TestDo(t *testing.T) {
	var a, b atomic.Bool
	err := Do(
		func() error { a.Store(true); return nil },
		func() error { b.Store(true); return errors.New("boom") },
	)
	if !a.Load() || !b.Load() {
		t.Fatal("not all thunks ran")
	}
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}
