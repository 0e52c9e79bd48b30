package vclock

import (
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// threads reads the process's OS thread count from /proc/self/status.
func threads(t *testing.T) int {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "Threads:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("no Threads line in /proc/self/status")
	return 0
}

// openTimerfds counts the process's timerfd descriptors.
func openTimerfds(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && target == "anon_inode:[timerfd]" {
			n++
		}
	}
	return n
}

// Concurrent sleepers at one P, with the netpoller live: none returns
// early, the sleeps park goroutines rather than holding threads, and the
// descriptors beyond the idle cap are closed.
func TestRealSleepConcurrentOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	const sleepers, total = 32, 1000
	before := threads(t)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		early []time.Duration
	)
	for g := 0; g < sleepers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += sleepers {
				d := time.Duration(100+37*(i%64)) * time.Microsecond
				start := time.Now()
				Real{}.Sleep(d)
				if time.Since(start) < d {
					mu.Lock()
					early = append(early, d)
					mu.Unlock()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	peak := before
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(time.Millisecond):
			peak = max(peak, threads(t))
		}
	}
	if len(early) > 0 {
		t.Errorf("%d of %d sleeps returned early, e.g. Sleep(%v)", len(early), total, early[0])
	}
	if peak >= before+sleepers {
		t.Errorf("threads grew from %d to %d with %d sleepers", before, peak, sleepers)
	}
	n := openTimerfds(t)
	if n > maxIdleTimers {
		t.Errorf("%d timerfds open after %d sleeps, idle cap %d", n, total, maxIdleTimers)
	}
	t.Logf("threads %d → %d, %d timerfds open", before, peak, n)
}

// A pooled timer stays non-blocking after use: a blocking timerfd would
// hold a thread for every sleep instead of parking in the netpoller.
func TestIdleTimerStaysNonBlocking(t *testing.T) {
	Real{}.Sleep(time.Microsecond)
	tm := getTimer()
	if tm == nil {
		t.Fatal("no timerfd")
	}
	defer putTimer(tm)
	flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(tm.fd), syscall.F_GETFL, 0)
	if errno != 0 {
		t.Fatal(errno)
	}
	if flags&syscall.O_NONBLOCK == 0 {
		t.Fatalf("pooled timerfd flags %#x lack O_NONBLOCK", flags)
	}
}

// A negative sleep takes no timer: an idle descriptor taken and armed
// with a negative expiry would be refused and closed. (A zero expiry
// disarms the timer and its read never returns, so zero is left to
// TestRealSleepNonPositiveReturns, which bounds the wait.)
func TestRealSleepNegativeTakesNoTimer(t *testing.T) {
	idle := func() int {
		idleTimers.mu.Lock()
		defer idleTimers.mu.Unlock()
		return len(idleTimers.list)
	}
	Real{}.Sleep(time.Microsecond)
	before := idle()
	for _, d := range []time.Duration{-time.Nanosecond, -time.Hour} {
		Real{}.Sleep(d)
	}
	if got := idle(); got != before {
		t.Fatalf("idle timers %d → %d across negative sleeps", before, got)
	}
}
