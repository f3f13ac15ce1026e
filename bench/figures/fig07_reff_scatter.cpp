// Figure 7: effective-resistance correlation scatter plots.
//
// Paper: for "2D mesh", "airfoil", "fe_4elt2" and "crack" (100 noiseless
// measurements each), effective resistances computed on the SGL-learned
// graphs correlate highly with those on the original graphs.
//
// Two measurement modes are reproduced:
//   - spherical: §III-A random unit current vectors. Here (1/M)‖Xᵀe_st‖²
//     concentrates on ‖L⁺e_st‖²/(N−1) — a biharmonic distance — so the
//     learned graph encodes a smoothed relative of Reff and the scatter is
//     correlated but dispersed.
//   - jl_sketch: the §II-D construction Y = C W^{1/2} B, for which
//     ‖Xᵀe_st‖² is a (1±ε) estimate of Reff itself.
//
// Measured with --quick (a 40² torus for the mesh, a 780-node
// triangulated mesh for the airfoil; 100 measurements, 60 hop-sampled
// pairs each), reff_corr is 0.49 (spherical) and 0.52 (JL sketch) on the
// mesh, and 0.58 (spherical) and 0.67 (JL sketch) on the airfoil. The
// JL mode correlates somewhat better, but neither scatter lies tightly
// along the diagonal as the paper's figure does.
#include <functional>

#include "bench_common.hpp"

namespace {

struct Case {
  const char* name;
  std::function<sgl::graph::MeshGraph()> make;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace sgl;
  const bench::Args args(argc, argv);
  const Index m = static_cast<Index>(args.get_int("measurements", 100));
  const Index pairs_per_graph =
      static_cast<Index>(args.get_int("pairs", args.quick() ? 60 : 150));

  bench::banner("fig07_reff_scatter",
                "2D mesh / airfoil / fe_4elt2 / crack: learned-graph "
                "effective resistances correlate highly with the originals");

  std::vector<Case> cases;
  if (args.quick()) {
    cases = {{"2d_mesh", [] { return graph::make_grid2d(40, 40, true); }},
             {"airfoil", [] { return bench::quick_trimesh(30, 26); }}};
  } else {
    cases = {{"2d_mesh", [] { return graph::make_grid2d(100, 100, true); }},
             {"airfoil", [] { return graph::make_airfoil_surrogate(); }},
             {"fe_4elt2", [] { return graph::make_fe4elt2_surrogate(); }},
             {"crack", [] { return graph::make_crack_surrogate(); }}};
  }

  std::printf("graph,mode,pair,reff_original,reff_learned\n");
  for (const Case& c : cases) {
    const graph::MeshGraph mesh = c.make();
    const auto pairs =
        spectral::sample_node_pairs_by_hops(mesh.graph, pairs_per_graph, 17);

    for (const bool sketch : {false, true}) {
      measure::Measurements data;
      if (sketch) {
        measure::SketchOptions sopt;
        sopt.num_projections = m;
        data = measure::sketch_measurements(mesh.graph, sopt);
      } else {
        measure::MeasurementOptions mopt;
        mopt.num_measurements = m;
        data = measure::generate_measurements(mesh.graph, mopt);
      }
      const core::SglResult result =
          core::learn_graph(data.voltages, data.currents);
      const spectral::ResistanceComparison cmp =
          spectral::compare_effective_resistances(mesh.graph, result.learned,
                                                  pairs);
      const char* mode = sketch ? "jl_sketch" : "spherical";
      for (std::size_t i = 0; i < cmp.reference.size(); ++i)
        std::printf("%s,%s,%zu,%.6e,%.6e\n", c.name, mode, i,
                    cmp.reference[i], cmp.approx[i]);
      std::printf("# %s[%s]: nodes=%d density %.3f->%.3f reff_corr=%.5f\n",
                  c.name, mode, mesh.graph.num_nodes(), mesh.graph.density(),
                  result.learned.density(), cmp.correlation);
    }
  }
  return 0;
}
