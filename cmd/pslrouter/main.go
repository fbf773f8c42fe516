// Command pslrouter fronts a fleet of pslserved backends: requests are
// consistent-hashed by program content so every program lives on
// exactly one replica's compiled cache (no duplicate compiles
// fleet-wide), and dead backends are health-checked out and their keys
// rehash onto survivors. POST /run is the one way in: a request is
// proxied on the goroutine that received it, so the router queues
// nothing and SIGINT/SIGTERM drain is http.Server.Shutdown — every
// request already received is answered — then stopping the health loop.
//
//	go run ./cmd/pslserved -addr 127.0.0.1:8081 &
//	go run ./cmd/pslserved -addr 127.0.0.1:8082 &
//	go run ./cmd/pslrouter -addr 127.0.0.1:8090 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//	curl -s localhost:8090/run -d '{"source":"function int main() { return 42; }"}'
//	go run ./cmd/loadgen -addr http://127.0.0.1:8090
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/expflags"
	"repro/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("pslrouter", flag.ExitOnError)
	f := expflags.RegisterRouter(fs)
	fs.Parse(os.Args[1:])

	cfg, err := f.RouterConfig()
	if err != nil {
		log.Fatalf("pslrouter: %v", err)
	}
	r, err := serve.NewRouter(cfg)
	if err != nil {
		log.Fatalf("pslrouter: %v", err)
	}
	srv := &http.Server{Addr: f.Addr, Handler: r.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("pslrouter: listening on %s, %d backends", f.Addr, len(cfg.Backends))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("pslrouter: %v", err)
		}
	case <-ctx.Done():
		log.Printf("pslrouter: draining")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(shutCtx)
		cancel()
		r.Close()
		log.Printf("pslrouter: drained")
	}
}
