package timing

import "testing"

// bfMaxWindowsLoop is the lane-by-lane reference: deal the (NSC/4) x
// (NB/4) MMM windows exactly as kernels/mmm does and return the
// most-loaded lane's count.
func bfMaxWindowsLoop(nsc, nb, lanes int) int {
	blocksM, blocksP := nsc/4, nb/4
	wmax := 0
	for lane := 0; lane < lanes; lane++ {
		nrb := 1
		if lanes < blocksM {
			nrb = (blocksM - lane + lanes - 1) / lanes
		}
		rank, cnt := 0, 1
		if lanes >= blocksM {
			rank = lane / blocksM
			cnt = lanes / blocksM
			if rem := lanes % blocksM; rem != 0 && lane%blocksM < rem {
				cnt++
			}
		}
		ncb := 0
		if rank < blocksP {
			ncb = (blocksP - rank + cnt - 1) / cnt
		}
		if w := nrb * ncb; w > wmax {
			wmax = w
		}
	}
	return wmax
}

// TestBFMaxWindowsMatchesLoop checks the closed form against the
// lane-by-lane deal over a grid that crosses every regime: fewer lanes
// than row blocks, exact and ragged rank groups, more rank groups than
// column blocks, and degenerate beam counts.
func TestBFMaxWindowsMatchesLoop(t *testing.T) {
	for nsc := 4; nsc <= 4096; nsc += 4 + nsc/8 {
		for nb := 0; nb <= 68; nb += 2 {
			for lanes := 0; lanes <= 1100; lanes += 1 + lanes/16 {
				got, want := bfMaxWindows(nsc, nb, lanes), bfMaxWindowsLoop(nsc, nb, lanes)
				if got != want {
					t.Fatalf("bfMaxWindows(%d, %d, %d) = %d, lane loop says %d", nsc, nb, lanes, got, want)
				}
			}
		}
	}
	for _, c := range [][3]int{{64, 8, 256}, {256, 8, 256}, {1024, 32, 1024}, {4096, 64, 1024}, {256, 16, 1024}} {
		if got, want := bfMaxWindows(c[0], c[1], c[2]), bfMaxWindowsLoop(c[0], c[1], c[2]); got != want {
			t.Fatalf("bfMaxWindows%v = %d, lane loop says %d", c, got, want)
		}
	}
}
