//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep where there is no timerfd; expect
// millisecond bursts in the open loop's arrivals there.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (*pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (*pacer) close() error { return nil }
