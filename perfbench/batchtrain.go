package main

import (
	"time"

	"corgipile"
)

// The library path: an epsilon-shaped dense dataset in memory, trained by
// corgipile.Train with logistic regression, mini-batch 64 and two gradient
// workers. It is not a timed workload, because its wall times follow the
// host's CPU steal more than the program (NOTES.md); the traced ladder
// times its layers and runs its output checks.

func batchConfig(epochs, procs int) corgipile.TrainConfig {
	return corgipile.TrainConfig{
		Model:        "lr",
		LearningRate: 0.5,
		Epochs:       epochs,
		BatchSize:    64,
		Procs:        procs,
		Strategy:     corgipile.CorgiPile,
		Seed:         trainSeed,
	}
}

// trainLibrary runs one corgipile.Train call.
func trainLibrary(ds *corgipile.Dataset, tc corgipile.TrainConfig, sp span) (trainCall, error) {
	t0 := time.Now()
	res, err := corgipile.Train(ds, tc)
	wall := time.Since(t0)
	sp.end()
	if err != nil {
		return trainCall{}, err
	}
	c := trainCall{wall: wall}
	for _, p := range res.Points {
		c.tuples = append(c.tuples, p.Tuples)
		c.losses = append(c.losses, p.AvgLoss)
		c.acc = p.TrainAcc
	}
	return c, nil
}
