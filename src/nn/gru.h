#ifndef PRISTI_NN_GRU_H_
#define PRISTI_NN_GRU_H_

// Gated recurrent unit cell, the recurrence used by the RNN imputation
// baselines (BRITS-like, GRIN-like, rGAIN-lite, VRIN-lite).

#include "autograd/ops.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace pristi::nn {

class GruCell : public Module {
 public:
  GruCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  // x: (B, input), h: (B, hidden) -> next hidden (B, hidden).
  Variable Forward(const Variable& x, const Variable& h) const;

  // Zero initial hidden state for a batch.
  Variable InitialState(int64_t batch) const;

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Variable wxz_, whz_, bz_;
  Variable wxr_, whr_, br_;
  Variable wxn_, whn_, bn_;
};

}  // namespace pristi::nn

#endif  // PRISTI_NN_GRU_H_
