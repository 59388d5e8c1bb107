package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once must be charged for the requests that
// queued behind the stall: they were due during it. A clock started at
// send time would report them as instant.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	send := func() {
		if calls.Add(1) == 1 {
			time.Sleep(stall) // the fake server's one stall
		}
	}
	// 100/s for 0.5 s on one connection: slots due every 10 ms.
	latency, late := openLoop(100, 500*time.Millisecond, 1, send)
	if len(latency) != 50 || len(late) != 50 {
		t.Fatalf("got %d latencies, %d lateness samples, want 50 each", len(latency), len(late))
	}
	if latency[0] < stall {
		t.Errorf("stalled request latency %v, want at least %v", latency[0], stall)
	}
	// Slot 1 was due at 10 ms and could only be sent once the stall
	// ended at ~200 ms: ~190 ms from due time, ~0 from send time.
	if latency[1] < stall-30*time.Millisecond {
		t.Errorf("request queued behind the stall: latency %v from due time, want about %v", latency[1], stall-10*time.Millisecond)
	}
	if late[1] < stall-30*time.Millisecond {
		t.Errorf("generator lateness of the queued slot %v, want about %v", late[1], stall-10*time.Millisecond)
	}
	// Slot 10 (due at 100 ms) waited about half the stall.
	if latency[10] < 70*time.Millisecond || latency[10] > 170*time.Millisecond {
		t.Errorf("slot due mid-stall: latency %v, want about 100ms", latency[10])
	}
	// Long after the stall the schedule is met again.
	if latency[45] > 50*time.Millisecond {
		t.Errorf("slot long after the stall: latency %v, want the backlog gone", latency[45])
	}
	if got := calls.Load(); got != 50 {
		t.Errorf("send called %d times, want every one of the 50 slots", got)
	}
}

func TestLatenessGrew(t *testing.T) {
	flat := make([]time.Duration, 100)
	for i := range flat {
		flat[i] = time.Millisecond
	}
	flat[10] = 80 * time.Millisecond // one stall is not growth
	if latenessGrew(flat) {
		t.Error("one stall in the first half reported as growing lateness")
	}
	growing := make([]time.Duration, 100)
	for i := range growing {
		growing[i] = time.Duration(i) * 5 * time.Millisecond
	}
	if !latenessGrew(growing) {
		t.Error("a backlog growing by 5 ms per slot not reported")
	}
	if latenessGrew(nil) {
		t.Error("empty phase reported as growing")
	}
}

func TestFreshness(t *testing.T) {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	acks := []ack{{sec(0.10), 100}, {sec(0.20), 100}, {sec(1.30), 100}, {sec(1.40), 100}}
	polls := []poll{
		{sec(0.05), 0}, {sec(0.15), 0}, {sec(0.50), 0},
		{sec(1.00), 200}, // first flush lands: covers acks 1 and 2
		{sec(1.35), 200},
		{sec(2.00), 300}, // second flush, still short of ack 4
		{sec(2.10), 300},
	}
	got := freshness(acks, polls)
	want := []time.Duration{sec(0.90), sec(0.80), sec(0.70)}
	if len(got) != len(want) {
		t.Fatalf("freshness = %v, want %v (the last ack was never covered)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("freshness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// A poll taken before the ack cannot vouch for it, even when its
	// count is already high enough (another writer's reports).
	got = freshness([]ack{{sec(1.0), 10}}, []poll{{sec(0.9), 50}, {sec(1.2), 50}})
	if len(got) != 1 || got[0] != sec(0.2) {
		t.Errorf("freshness with an early poll = %v, want [200ms]", got)
	}
}
