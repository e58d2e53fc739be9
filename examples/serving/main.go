// Serving demonstrates the snapshot-swap Server: a product catalog's
// publications are frozen by two row-owning parties, new products stream in
// while candidate queries are served wait-free from published
// snapshots, and a quiesce pins the server to exactly the state a cold
// rebuild over everything would produce.
//
//	go run ./examples/serving
package main

import (
	"context"
	"fmt"
	"os"

	"blast"
	"blast/internal/model"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serving:", err)
		os.Exit(1)
	}
}

// product builds a small catalog profile.
func product(id, name, specs, brand string) model.Profile {
	p := model.Profile{ID: id}
	p.Add("name", name)
	p.Add("specs", specs)
	p.Add("brand", brand)
	return p
}

func run() error {
	ctx := context.Background()

	// The standing catalog to deduplicate against.
	catalog := model.NewCollection("catalog")
	for _, p := range []model.Profile{
		product("c1", "Lumix DMC TZ5 silver", "compact digital camera 9 megapixel 10x zoom", "Panasonic"),
		product("c2", "EOS 450D body", "digital slr camera 12 megapixel live view", "Canon"),
		product("c3", "Walkman NWZ A818", "portable mp3 player 8gb bluetooth black", "Sony"),
		product("c4", "ThinkPad X200", "12 inch ultraportable notebook core duo", "Lenovo"),
		product("c5", "nuvi 260W", "gps navigator widescreen maps", "Garmin"),
		product("c6", "Cyber-shot DSC W120", "compact camera 7 megapixel 4x zoom", "Sony"),
	} {
		catalog.Append(p)
	}
	ds := &model.Dataset{Name: "serving", Kind: model.Dirty, E1: catalog, Truth: model.NewGroundTruth()}

	// Two shards: each publication is frozen by two parties, each over
	// the rows hashed onto it, and joined into one published snapshot
	// every read is served from. SwapOps: 2 keeps the walkthrough's
	// snapshots visibly fresh; production cadences are hundreds of
	// inserts per swap.
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		return err
	}
	srv, err := p.Serve(ctx, ds, blast.ServerOptions{Shards: 2, SwapOps: 2})
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("server: %d shards over %d catalog products\n", srv.NumShards(), srv.NumProfiles())

	// New products arrive while the catalog serves queries. Ids are
	// admitted immediately; the writer appends them to its block
	// collection and publishes fresh rows at the swap cadence.
	arrivals := []model.Profile{
		product("n1", "Panasonic Lumix TZ5-S", "9 megapixel compact camera 10x zoom silver", "Panasonic"),
		product("n2", "Sony NWZ-A818 8GB Walkman", "mp3 player bluetooth 8gb black", "Sony"),
		product("n3", "Canon EOS450D SLR", "12 megapixel digital slr live view body", "Canon"),
	}
	ids, err := srv.InsertAll(ctx, arrivals)
	if err != nil {
		return err
	}
	fmt.Printf("admitted %d arrivals as ids %v\n", len(ids), ids)

	// Quiesce: the writer applies the stream, freezes it by both parties
	// and swaps the result in. From here the server answers exactly like a
	// cold rebuild over catalog+arrivals.
	if err := srv.Quiesce(ctx); err != nil {
		return err
	}
	for i, id := range ids {
		fmt.Printf("%s (id %d, epoch %d):\n", arrivals[i].ID, id, srv.Epoch(id))
		for _, c := range srv.Candidates(id) {
			fmt.Printf("  candidate id %d  weight %.3f  (theta_i %.3f)\n", c.ID, c.Weight, srv.Threshold(int(c.ID)))
		}
	}

	pairs, err := srv.Pairs(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("retained comparisons across the union catalog: %d\n", len(pairs))
	for _, st := range srv.Stats() {
		fmt.Printf("shard %d: epoch %d, applied %d, swaps %d\n", st.ID, st.Epoch, st.Applied, st.Swaps)
	}
	return nil
}
