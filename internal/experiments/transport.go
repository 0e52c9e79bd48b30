package experiments

import (
	"net"
	"sync"
	"time"
)

// DelayProxy forwards TCP connections to target, delaying every byte by
// rtt/2 in each direction — a userspace WAN emulator for loopback
// transport experiments. It models propagation, not serialisation: bytes
// written together are delivered together one half-RTT later, so every
// serial challenge/response round pays the RTT once, exactly as on a
// real link. It returns the proxy's address and a shutdown func.
func DelayProxy(target string, rtt time.Duration) (string, func(), error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				conn.Close()
				continue
			}
			wg.Add(2)
			go delayPump(&wg, up, conn, rtt/2)
			go delayPump(&wg, conn, up, rtt/2)
		}
	}()
	return lis.Addr().String(), func() {
		lis.Close()
		wg.Wait()
	}, nil
}

// delayPump copies src→dst, delivering each chunk oneWay after it was
// read. Closing either side tears both down.
func delayPump(wg *sync.WaitGroup, dst, src net.Conn, oneWay time.Duration) {
	defer wg.Done()
	type pkt struct {
		b   []byte
		due time.Time
	}
	ch := make(chan pkt, 4096)
	go func() {
		defer close(ch)
		for {
			buf := make([]byte, 32<<10)
			n, err := src.Read(buf)
			if n > 0 {
				ch <- pkt{b: buf[:n], due: time.Now().Add(oneWay)}
			}
			if err != nil {
				return
			}
		}
	}()
	for p := range ch {
		time.Sleep(time.Until(p.due))
		if _, err := dst.Write(p.b); err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
	for range ch { // drain so the reader goroutine exits
	}
}
