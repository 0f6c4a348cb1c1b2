// Command fltrain runs the federated fine-tuning of §III-A and saves the
// resulting global embedding model plus the aggregated threshold.
//
// It supports both deployments of internal/fl:
//
//	fltrain -mode local                      # in-process simulation (default)
//	fltrain -mode server -addr :7070 -clients 4
//	fltrain -mode client -addr host:7070 -id 0
//
// In server mode the process waits for -clients remote client hosts, then
// orchestrates rounds over TCP. In client mode the process hosts one FL
// client with a private shard and serves rounds until the server is done.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/fl"
	"repro/internal/train"
)

func main() {
	var (
		mode     = flag.String("mode", "local", "local | server | client")
		addr     = flag.String("addr", "127.0.0.1:7070", "server listen / dial address")
		archName = flag.String("arch", "mpnet-sim", "encoder architecture: mpnet-sim | albert-sim")
		clients  = flag.Int("clients", 20, "fleet size (local) or expected registrations (server)")
		perRound = flag.Int("per-round", 4, "clients sampled per round")
		rounds   = flag.Int("rounds", 50, "FL rounds")
		epochs   = flag.Int("epochs", 6, "local epochs per round")
		clientID = flag.Int("id", 0, "client ID (client mode)")
		seed     = flag.Int64("seed", 1, "master seed")
		outPath  = flag.String("o", "model.bin", "output path for the trained global model")
	)
	flag.Parse()

	arch, err := embed.ArchByName(*archName)
	if err != nil {
		log.Fatal(err)
	}
	if !arch.Trainable {
		log.Fatalf("architecture %s is frozen and cannot be FL-trained", arch.Name)
	}
	trainCfg := train.DefaultConfig()
	trainCfg.Epochs = *epochs

	corpusCfg := dataset.DefaultConfig()
	corpusCfg.Seed = *seed
	corpus := dataset.GenerateCorpus(corpusCfg)
	shards := dataset.SplitPairs(corpus.Train, *clients, rand.New(rand.NewSource(*seed+200)))

	switch *mode {
	case "local":
		fleet := make([]fl.Client, *clients)
		for i := range fleet {
			fleet[i] = fl.NewLocalClient(i, arch, *seed+100, shards[i], trainCfg, 0.5)
		}
		runServer(arch, fleet, *rounds, *perRound, *seed, *outPath, corpus)

	case "server":
		hub, err := fl.Listen(*addr)
		if err != nil {
			log.Fatal(err)
		}
		defer hub.Close()
		log.Printf("waiting for %d clients on %s...", *clients, hub.Addr())
		fleet, err := hub.WaitForClients(*clients, 5*time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		runServer(arch, fleet, *rounds, *perRound, *seed, *outPath, corpus)

	case "client":
		if *clientID < 0 || *clientID >= *clients {
			log.Fatalf("-id %d out of range [0, %d)", *clientID, *clients)
		}
		lc := fl.NewLocalClient(*clientID, arch, *seed+100, shards[*clientID], trainCfg, 0.5)
		log.Printf("client %d serving rounds via %s (%d private pairs)", *clientID, *addr, lc.Samples())
		if err := fl.ServeClient(*addr, lc); err != nil {
			log.Fatal(err)
		}

	default:
		log.Fatalf("unknown -mode %q", *mode)
	}
}

func runServer(arch embed.Arch, fleet []fl.Client, rounds, perRound int, seed int64, outPath string, corpus *dataset.Corpus) {
	global := embed.NewModel(arch, seed+100)
	srv := fl.NewServer(global, fleet, fl.ServerConfig{
		Rounds:          rounds,
		ClientsPerRound: perRound,
		Seed:            seed + 300,
		InitialTau:      0.7,
	})
	start := time.Now()
	err := srv.Run(func(ri fl.RoundInfo) {
		conf := train.EvaluateAt(global, corpus.Val, ri.GlobalTau)
		log.Printf("round %2d/%d  tau=%.3f  F1=%.3f  prec=%.3f  rec=%.3f  (clients %v)",
			ri.Round+1, rounds, ri.GlobalTau, conf.F1(), conf.Precision(), conf.Recall(), ri.Sampled)
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("training finished in %v; tau_global=%.3f", time.Since(start).Round(time.Second), srv.Tau())

	f, err := os.Create(outPath)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := global.Save(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved global model to %s (tau_global=%.3f)\n", outPath, srv.Tau())
}
