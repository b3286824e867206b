package obs

import (
	"expvar"
	"net"
	"net/http"
	"sync"
)

// The live-introspection surface: components publish snapshot functions
// (the runner pool's job progress, a sharded cluster's per-shard
// clocks/windows/barrier waits), and ServeLive exposes them all as one
// expvar map over HTTP for long runs. Everything here is wall-clock
// flavored and intentionally firewalled from the deterministic output
// path — snapshots never reach gated TSV.

var (
	liveMu   sync.Mutex
	liveVars = map[string]func() any{}
	liveSeq  int
)

// PublishLive registers a snapshot function under name, returning the
// unique key it was stored under (name, or name#k on collision — pools
// and clusters come and go, and a stale unregister must not clobber a
// live publisher). The function is called on every snapshot request and
// must be safe to call from any goroutine.
func PublishLive(name string, fn func() any) string {
	liveMu.Lock()
	defer liveMu.Unlock()
	key := name
	if _, taken := liveVars[key]; taken {
		liveSeq++
		key = name + "#" + itoa(liveSeq)
	}
	liveVars[key] = fn
	return key
}

// UnpublishLive removes a previously published snapshot function. Once
// it returns, the function is not running and never runs again, so the
// publisher may reuse whatever the function reads.
func UnpublishLive(key string) {
	liveMu.Lock()
	defer liveMu.Unlock()
	delete(liveVars, key)
}

// LiveSnapshot evaluates every published snapshot function. The
// functions run under the registry lock — they are cheap atomic reads —
// which is what lets UnpublishLive promise that none is still running.
func LiveSnapshot() map[string]any {
	liveMu.Lock()
	defer liveMu.Unlock()
	out := make(map[string]any, len(liveVars))
	for k, fn := range liveVars {
		out[k] = fn()
	}
	return out
}

var expvarOnce sync.Once

// ServeLive publishes the snapshot surface as the expvar var "sim" and
// serves the standard /debug/vars endpoint on addr (e.g. ":8125" or
// "127.0.0.1:0") in a background goroutine. It returns the bound
// address. The listener lives for the remainder of the process — this
// is an opt-in debugging endpoint for long runs, not a managed server.
func ServeLive(addr string) (string, error) {
	expvarOnce.Do(func() {
		expvar.Publish("sim", expvar.Func(func() any { return LiveSnapshot() }))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		// expvar registers itself on http.DefaultServeMux.
		_ = http.Serve(ln, nil)
	}()
	return ln.Addr().String(), nil
}

// itoa avoids strconv for this one tiny use.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
