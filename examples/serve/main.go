// Serving: compile and load the workload suite once, snapshot the image,
// stamp a sharded pool of worker machines out of it, and replay the suite as
// concurrent traffic from eight clients — the paper's single processor
// scaled out the way Givelberg's object-system-as-fleet argument suggests.
package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"

	"repro"
	"repro/internal/workload"
)

func main() {
	sys := obarch.NewSystem(obarch.Options{})
	progs, err := workload.LoadSuite(sys.M)
	if err != nil {
		log.Fatal(err)
	}

	workers := runtime.GOMAXPROCS(0)
	pool, err := sys.ServePool(workers)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	fmt.Printf("pool: %d workers stamped from one %d-program image\n", pool.Workers(), len(progs))

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, p := range progs {
				res := pool.Do(obarch.Request{Receiver: obarch.Int(p.Size), Selector: p.Entry})
				got, err := res.Int()
				if err != nil {
					log.Fatalf("client %d: %s: %v", c, p.Name, err)
				}
				if got != p.Check {
					log.Fatalf("client %d: %s checksum %d, want %d", c, p.Name, got, p.Check)
				}
			}
		}(c)
	}
	wg.Wait()
	fmt.Printf("all %d checksums validated across %d concurrent clients\n", clients*len(progs), clients)
	fmt.Println()
	fmt.Print(pool.Metrics().Report())
}
