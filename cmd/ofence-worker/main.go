// Command ofence-worker runs one analysis worker against an ofence-serve
// coordinator started with -fleet-token:
//
//	ofence-worker -coordinator http://host:8080 -token T -capacity 4
//
// The worker leases tasks from the coordinator, runs the analysis pipeline
// in up to -capacity slots that share one set of warm lineages, heartbeats
// while working, and reports results. Its warm lineages are in-process
// only: front-end work is shared between its slots, not with other
// workers. SIGINT/SIGTERM stops leasing; in-flight leases
// lapse and the coordinator re-dispatches them.
//
// See docs/SERVICE.md for the wire protocol and operational guide.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ofence/internal/service"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://localhost:8080", "coordinator base URL")
		capacity    = flag.Int("capacity", 1, "tasks run concurrently, sharing the process's warm lineages")
		id          = flag.String("id", "", "worker ID (default worker-<pid>-1)")
		token       = flag.String("token", "", "shared secret; must match the coordinator's -fleet-token")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := service.NewWorker(service.WorkerConfig{
		Coordinator: *coordinator,
		ID:          *id,
		Token:       *token,
		Capacity:    *capacity,
	})
	log.Printf("worker %s leasing from %s", w.ID(), *coordinator)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil && err != context.Canceled {
			log.Printf("worker %s: %v", w.ID(), err)
		}
	}()

	<-ctx.Done()
	log.Print("stopping; in-flight leases will be re-dispatched by the coordinator")
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
}
