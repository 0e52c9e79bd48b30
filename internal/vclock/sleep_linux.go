package vclock

import (
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// maxIdleTimers caps the timer descriptors kept for reuse: enough for
// every look-up a prover sleeps at once under a 16-audit window. A sleep
// that finds the list empty makes its own descriptor, and one returned to
// a full list is closed.
const maxIdleTimers = 16

// clockMonotonic is CLOCK_MONOTONIC, the clock time.Now's monotonic
// reading is taken on, so a sleep cannot end before its d has passed on
// it; package syscall does not name it.
const clockMonotonic = 1

// timer is a one-shot CLOCK_MONOTONIC timerfd in the runtime's netpoller.
// fd is the raw descriptor, kept beside f so that arming the timer never
// calls (*os.File).Fd, which turns a descriptor the os package made
// non-blocking back to blocking — and a blocking read holds a thread.
type timer struct {
	f  *os.File
	fd int
}

var idleTimers struct {
	mu   sync.Mutex
	list []*timer
}

// preciseSleep blocks the calling goroutine for d on a timerfd: the
// netpoller's epoll_wait returns when the descriptor turns readable, at
// its nanosecond deadline, so the sleep does not wait for the runtime's
// whole-millisecond timer poll. It reports false when it did not sleep —
// no descriptor could be made or armed, or the read failed — and the
// caller then sleeps some other way.
func preciseSleep(d time.Duration) bool {
	t := getTimer()
	if t == nil {
		return false
	}
	// A relative one-shot expiry: it_interval stays zero.
	var spec [2]syscall.Timespec
	spec[1] = syscall.NsecToTimespec(int64(d))
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME,
		uintptr(t.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		t.f.Close()
		return false
	}
	var expirations [8]byte
	if n, err := t.f.Read(expirations[:]); err != nil || n != len(expirations) {
		t.f.Close()
		return false
	}
	putTimer(t)
	return true
}

// getTimer takes an idle timer, or makes one when there is none; nil
// when the descriptor cannot be made.
func getTimer() *timer {
	idleTimers.mu.Lock()
	if n := len(idleTimers.list); n > 0 {
		t := idleTimers.list[n-1]
		idleTimers.list = idleTimers.list[:n-1]
		idleTimers.mu.Unlock()
		return t
	}
	idleTimers.mu.Unlock()
	// TFD_NONBLOCK and TFD_CLOEXEC are O_NONBLOCK and O_CLOEXEC; a
	// non-blocking descriptor is one os.NewFile registers with the poller.
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE,
		clockMonotonic, uintptr(syscall.O_NONBLOCK|syscall.O_CLOEXEC), 0)
	if errno != 0 {
		return nil
	}
	return &timer{f: os.NewFile(fd, "timerfd"), fd: int(fd)}
}

// putTimer returns a disarmed timer to the idle list, or closes it when
// the list is full.
func putTimer(t *timer) {
	idleTimers.mu.Lock()
	if len(idleTimers.list) < maxIdleTimers {
		idleTimers.list = append(idleTimers.list, t)
		t = nil
	}
	idleTimers.mu.Unlock()
	if t != nil {
		t.f.Close()
	}
}
