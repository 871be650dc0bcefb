#ifndef PRISTI_NN_MODULE_H_
#define PRISTI_NN_MODULE_H_

// Parameter-owning module base class (the torch.nn.Module analogue).
//
// A Module registers parameters (autograd leaves with requires_grad) and
// child modules; `Parameters()` flattens the tree for the optimizer, and
// SaveCheckpoint/LoadCheckpoint serialize the tree by hierarchical parameter
// name so checkpoints are layout-independent and shape-checked on load.
//
// `Variable` is a shared handle to its tape node, so the copies returned by
// AddParameter / Parameters alias the same underlying storage: the optimizer
// updating its copy updates the layer's weights.

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/rng.h"
#include "common/status.h"

namespace pristi::nn {

using autograd::Variable;
using tensor::Shape;
using tensor::Tensor;

class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  // Modules own parameter state; copying would silently fork it.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All parameters of this module and its descendants, with "child.param"
  // style hierarchical names. The Variables are aliases of the layer state.
  std::vector<std::pair<std::string, Variable>> NamedParameters();
  std::vector<Variable> Parameters();

  void ZeroGrad();
  int64_t ParameterCount();

  // Versioned, checksummed checkpoint of all parameters by hierarchical
  // name (src/serialize/). Every failure mode — truncation, corruption,
  // version skew, a name or shape mismatch — comes back as a typed error
  // instead of a CHECK abort. Defined in serialize/checkpoint.cc: the nn
  // layer does not link pristi_serialize, callers of these two members
  // must.
  pristi::Status SaveCheckpoint(std::ostream& out);
  pristi::Status LoadCheckpoint(std::istream& in);

 protected:
  // Registers a parameter initialized to `init`; the returned Variable
  // aliases the registered one.
  Variable AddParameter(const std::string& name, const Tensor& init);
  // Registers a child whose parameters are exposed under `name.`. The child
  // must outlive this module (typically it is a data member).
  void AddChild(const std::string& name, Module* child);

  // ---- Common initializers ------------------------------------------------
  // Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)) (Glorot).
  static Tensor GlorotUniform(Shape shape, int64_t fan_in, int64_t fan_out,
                              Rng& rng);
  // N(0, scale) entries.
  static Tensor NormalInit(Shape shape, float scale, Rng& rng);

 private:
  std::vector<std::pair<std::string, Variable>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

}  // namespace pristi::nn

#endif  // PRISTI_NN_MODULE_H_
