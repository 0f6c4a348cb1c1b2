// Command meancache is an interactive MeanCache client: queries typed on
// stdin are served through a persistent local semantic cache in front of a
// simulated LLM web service (optionally a remote one over HTTP).
//
// Usage:
//
//	meancache                            # fresh untrained encoder, local LLM sim
//	meancache -model model.bin -tau 0.8  # FL-trained encoder from fltrain
//	meancache -cache ~/.meancache.db     # persistent cache across runs
//	meancache -llm 127.0.0.1:8080        # front a remote llmsim HTTP service
//
// Commands: plain text submits a query in the current conversation;
// "/new" starts a new conversation; "/stats" prints cache statistics;
// "/quit" exits (persisting the cache if -cache is set).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/llmsim"
	"repro/internal/store"
)

func main() {
	var (
		modelPath = flag.String("model", "", "FL-trained model file from fltrain (empty = fresh encoder)")
		archName  = flag.String("arch", "mpnet-sim", "encoder architecture when -model is empty")
		tau       = flag.Float64("tau", 0.8, "cosine similarity threshold")
		cachePath = flag.String("cache", "", "persistent cache file (empty = in-memory only)")
		llmAddr   = flag.String("llm", "", "remote llmsim HTTP address (empty = in-process simulator)")
		capacity  = flag.Int("capacity", 0, "max cache entries (0 = unbounded)")
	)
	flag.Parse()

	var enc *embed.Model
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		enc, err = embed.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s encoder from %s\n", enc.Name(), *modelPath)
	} else {
		arch, err := embed.ArchByName(*archName)
		if err != nil {
			log.Fatal(err)
		}
		enc = embed.NewModel(arch, 1)
		fmt.Printf("using fresh %s encoder (run fltrain for a fine-tuned one)\n", enc.Name())
	}

	var llm core.LLM
	if *llmAddr != "" {
		llm = llmsim.NewClient(*llmAddr)
		fmt.Printf("fronting remote LLM service at %s\n", *llmAddr)
	} else {
		cfg := llmsim.DefaultConfig()
		cfg.Sleep = true // feel the latency a cache saves
		llm = llmsim.New(cfg)
		fmt.Println("fronting in-process simulated LLM service")
	}

	client := core.New(core.Options{
		Encoder:      enc,
		LLM:          llm,
		Tau:          float32(*tau),
		Capacity:     *capacity,
		Policy:       cache.LRU{},
		FeedbackStep: 0.01,
	})

	var st *store.Store
	if *cachePath != "" {
		var err error
		st, err = store.Open(*cachePath)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		if loaded, err := cache.LoadFrom(st, enc.Dim(), *capacity, cache.LRU{}); err == nil && loaded.Len() > 0 {
			// Re-insert persisted entries into the live client cache.
			restore(client, loaded)
			fmt.Printf("restored %d cached entries from %s\n", loaded.Len(), *cachePath)
		}
	}

	fmt.Println("type a query (/new = new conversation, /stats, /quit):")
	session := client.NewSession()
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "/quit":
			persist(client, st, *cachePath)
			return
		case line == "/new":
			session = client.NewSession()
			fmt.Println("(new conversation)")
			continue
		case line == "/stats":
			s := client.Stats()
			fmt.Printf("entries=%d hits=%d lookups=%d llm-queries=%d storage=%dB mean-search=%v tau=%.2f\n",
				s.CacheEntries, s.CacheHits, s.Lookups, s.LLMQueries, s.StorageBytes, s.MeanSearch, client.Tau())
			continue
		}
		start := time.Now()
		res, err := session.Ask(line)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			continue
		}
		src := "LLM"
		if res.Hit {
			src = fmt.Sprintf("cache (score %.2f)", res.Score)
		}
		fmt.Printf("[%s, %v] %s\n", src, time.Since(start).Round(time.Millisecond), res.Response)
	}
	persist(client, st, *cachePath)
}

// restore copies entries from a loaded snapshot into the live cache,
// preserving parent links via an ID translation table.
func restore(client *core.Client, snapshot *cache.Cache) {
	idMap := make(map[int]int)
	entries := snapshot.Entries()
	// Parents have lower IDs than children (LoadFrom preserves IDs and
	// children always insert after parents), so insert in ID order.
	for inserted := 0; inserted < len(entries); {
		for _, e := range entries {
			if _, done := idMap[e.ID]; done {
				continue
			}
			parent := cache.NoParent
			if e.Parent != cache.NoParent {
				mapped, ok := idMap[e.Parent]
				if !ok {
					continue // parent not inserted yet
				}
				parent = mapped
			}
			id, err := client.Insert(e.Query, e.Response, parent)
			if err != nil {
				log.Printf("restoring entry %d: %v", e.ID, err)
			}
			idMap[e.ID] = id
			inserted++
		}
	}
}

// persist appends the session's cache to the log as one synced batch
// (the whole cache: restore gave its entries new IDs) and compacts the
// log once it is more than twice its live bytes, so the file stays
// within twice the cache however many sessions save into it.
func persist(client *core.Client, st *store.Store, path string) {
	if st == nil {
		return
	}
	res, err := client.Cache().AppendTo(st, nil)
	if err != nil {
		log.Printf("persisting cache: %v", err)
		return
	}
	if res.CompactErr != nil {
		log.Printf("compacting %s: %v", path, res.CompactErr)
	}
	fmt.Printf("persisted %d entries to %s\n", client.Cache().Len(), path)
}
