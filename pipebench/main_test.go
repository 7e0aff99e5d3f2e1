package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRunLoadsInterleavesByProgress(t *testing.T) {
	var order []string
	mk := func(name string, stepS, budget float64, min int) *load {
		return &load{budget: budget, min: min, step: func() (time.Duration, error) {
			order = append(order, name)
			return time.Duration(stepS * float64(time.Second)), nil
		}}
	}
	// a needs 4 one-second steps, b two two-second steps, c (no budget)
	// two steps by count, and d three steps although one covers its
	// budget.
	a, b, c, d := mk("a", 1, 4, 1), mk("b", 2, 4, 1), mk("c", 0, 0, 2), mk("d", 5, 1, 3)
	if err := runLoads(a, b, c, d); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(order, " "), "a b c d a a b c a d d"; got != want {
		t.Errorf("step order %q, want %q", got, want)
	}
	for _, l := range []*load{a, b, c, d} {
		if !l.done() {
			t.Errorf("load left unfinished: %+v", l)
		}
	}
}

func TestRunLoadsStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	steps := 0
	l := &load{budget: 10, min: 1, step: func() (time.Duration, error) {
		steps++
		return time.Second, boom
	}}
	if err := runLoads(l); !errors.Is(err, boom) || steps != 1 {
		t.Errorf("runLoads = %v after %d steps, want boom after 1", err, steps)
	}
}
