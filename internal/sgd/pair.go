// Paired reconstruction: two independent SGD problems trained in
// lockstep, one per SIMD lane.
//
// The four reconstruction surfaces (throughput, power, latency,
// service-rate) are trained every decision quantum with identical
// hyperparameters over matrices of the same width (the 108 resource
// configurations). Each SGD update chain is serially dependent —
// entry t+1 reads the factors entry t wrote — so a single surface
// cannot be vectorised without changing its result. Two *different*
// surfaces, however, share no state at all: packing surface A into
// lane 0 and surface B into lane 1 of 128-bit VEX ops runs both update
// chains at once. Packed IEEE-754 arithmetic is element-wise exact, so
// each lane computes bit-for-bit what its own serial sweep would have,
// and the pair is byte-identical to two independent Reconstruct calls.
//
// The kernel handles the dense prefix both matrices share: the leading
// rows that are fully observed and not bias-frozen (the offline-
// characterised training applications, the bulk of the work). Rows
// past the common prefix — sparse online rows, bias-only rows, and any
// shape difference between the two matrices — train in scalar Go after
// each kernel epoch, in the same row-major order the serial sweep
// uses, against the same interleaved column state.
package sgd

// pairArgs is the argument block for the assembly kernel. Field
// offsets are hard-coded in pair_amd64.s — do not reorder.
type pairArgs struct {
	q, pc, rb, cb, vals *float64
	rows, cols          int64
	mu, eta, lam        [2]float64
}

// pairFactors is the kernel's fixed latent rank: the assembly unrolls
// exactly six factor updates per entry, matching the runtime's
// Factors=6 default.
const pairFactors = 6

// ReconstructPair reconstructs two independent observation matrices,
// training both at once in SIMD lanes when the pair qualifies (see
// pairable). Results are bit-identical to calling Reconstruct on each
// matrix separately, whether or not the paired kernel ran.
func ReconstructPair(a, b *Matrix, pa, pb Params) (*Prediction, *Prediction) {
	ra, rb, _, _ := reconstructPair(a, b, pa.withDefaults(), pb.withDefaults(), false)
	return ra, rb
}

// ReconstructPairFactors is ReconstructPair with factor capture, the
// paired analogue of ReconstructFactors: untrained (cold) models yield
// nil factors instead of an error.
func ReconstructPairFactors(a, b *Matrix, pa, pb Params) (*Prediction, *Prediction, *Factors, *Factors) {
	return reconstructPair(a, b, pa.withDefaults(), pb.withDefaults(), true)
}

func reconstructPair(a, b *Matrix, pa, pb Params, capture bool) (*Prediction, *Prediction, *Factors, *Factors) {
	sa, sb := prepareTraining(a, pa), prepareTraining(b, pb)
	if !pairKernelOK || !pairable(sa, sb) {
		predA, facA := sa.train(capture)
		predB, facB := sb.train(capture)
		return predA, predB, facA, facB
	}
	trainPair(sa, sb)
	predA, facA := sa.finish(capture)
	predB, facB := sb.finish(capture)
	return predA, predB, facA, facB
}

// densePrefix returns the number of leading rows that are fully
// observed and factor-trained — the rows the assembly kernel may
// sweep. The kernel applies factor updates unconditionally and reads
// every cell, so a sparse or bias-frozen row ends the prefix.
func densePrefix(st *trainState) int {
	m := st.m
	for i := 0; i < m.Rows; i++ {
		if st.biasOnly[i] {
			return i
		}
		for j := 0; j < m.Cols; j++ {
			if !m.Known(i, j) {
				return i
			}
		}
	}
	return m.Rows
}

// pairable reports whether two prepared reconstructions can share the
// SIMD kernel: both non-empty, same column count (the interleaved
// column state walks both lanes together), the kernel's fixed rank,
// the same sweep count, and a non-empty common dense prefix.
func pairable(sa, sb *trainState) bool {
	if len(sa.entries) == 0 || len(sb.entries) == 0 {
		return false
	}
	if sa.m.Cols != sb.m.Cols {
		return false
	}
	if sa.f != pairFactors || sb.f != pairFactors {
		return false
	}
	if sa.p.MaxIter != sb.p.MaxIter || sa.p.MaxIter <= 0 {
		return false
	}
	return densePrefix(sa) > 0 && densePrefix(sb) > 0
}

// trainPair runs the paired sweep: per epoch, the assembly kernel
// covers the common dense prefix for both lanes, then each lane's
// remaining entries train scalar against the interleaved column state.
// Each lane's per-epoch update order is exactly trainSerial's — the
// prefix rows are the leading entries of the row-major entry list —
// so every float64 it produces is bit-identical to the serial sweep.
func trainPair(sa, sb *trainState) {
	const f = pairFactors
	cols := sa.m.Cols
	rows := densePrefix(sa)
	if kb := densePrefix(sb); kb < rows {
		rows = kb
	}

	// Interleave the kernel block's row state and the full column
	// state: element e of lane L lives at index 2e+L.
	qP := make([]float64, rows*f*2)
	rbP := make([]float64, rows*2)
	pcP := make([]float64, cols*f*2)
	cbP := make([]float64, cols*2)
	valsP := make([]float64, rows*cols*2)
	for i := 0; i < rows*f; i++ {
		qP[2*i], qP[2*i+1] = sa.q[i], sb.q[i]
	}
	for i := 0; i < rows; i++ {
		rbP[2*i], rbP[2*i+1] = sa.rowBias[i], sb.rowBias[i]
	}
	for i := 0; i < cols*f; i++ {
		pcP[2*i], pcP[2*i+1] = sa.pc[i], sb.pc[i]
	}
	for i := 0; i < cols; i++ {
		cbP[2*i], cbP[2*i+1] = sa.colBias[i], sb.colBias[i]
	}
	// Prefix rows are fully observed, so the first rows*cols entries
	// are exactly the kernel block in row-major order.
	for i := 0; i < rows*cols; i++ {
		valsP[2*i], valsP[2*i+1] = sa.entries[i].v, sb.entries[i].v
	}
	tailA := sa.entries[rows*cols:]
	tailB := sb.entries[rows*cols:]

	args := &pairArgs{
		q: &qP[0], pc: &pcP[0], rb: &rbP[0], cb: &cbP[0], vals: &valsP[0],
		rows: int64(rows), cols: int64(cols),
		mu:  [2]float64{sa.mu, sb.mu},
		eta: [2]float64{sa.p.LearningRate, sb.p.LearningRate},
		lam: [2]float64{sa.p.Reg, sb.p.Reg},
	}
	for iter := 0; iter < sa.p.MaxIter; iter++ {
		pairEpoch6(args)
		pairTailEpoch(tailA, 0, sa, pcP, cbP)
		pairTailEpoch(tailB, 1, sb, pcP, cbP)
	}

	for i := 0; i < rows*f; i++ {
		sa.q[i], sb.q[i] = qP[2*i], qP[2*i+1]
	}
	for i := 0; i < rows; i++ {
		sa.rowBias[i], sb.rowBias[i] = rbP[2*i], rbP[2*i+1]
	}
	for i := 0; i < cols*f; i++ {
		sa.pc[i], sb.pc[i] = pcP[2*i], pcP[2*i+1]
	}
	for i := 0; i < cols; i++ {
		sa.colBias[i], sb.colBias[i] = cbP[2*i], cbP[2*i+1]
	}
}

// pairTailEpoch sweeps one lane's post-prefix entries once. Row state
// (q, rowBias) for tail rows lives untouched in the lane's own arrays;
// column state is the interleaved pair block shared with the kernel.
// The arithmetic matches trainSerial statement for statement — same
// association, same old-value capture — so the tail is bit-identical
// to the serial sweep too.
func pairTailEpoch(tail []obs, lane int, st *trainState, pcP, cbP []float64) {
	const f = pairFactors
	eta, lam := st.p.LearningRate, st.p.Reg
	mu := st.mu
	for _, e := range tail {
		qi := st.q[e.i*f : (e.i+1)*f]
		pb := e.j * f * 2
		dot := 0.0
		for k := 0; k < f; k++ {
			dot += qi[k] * pcP[pb+2*k+lane]
		}
		err := e.v - (mu + st.rowBias[e.i] + cbP[2*e.j+lane] + dot)
		st.rowBias[e.i] += eta * (err - lam*st.rowBias[e.i])
		cbP[2*e.j+lane] += eta * (err - lam*cbP[2*e.j+lane])
		if st.biasOnly[e.i] {
			continue
		}
		for k := 0; k < f; k++ {
			qk, pk := qi[k], pcP[pb+2*k+lane]
			qi[k] += eta * (err*pk - lam*qk)
			pcP[pb+2*k+lane] += eta * (err*qk - lam*pk)
		}
	}
}
