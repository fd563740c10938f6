#include "core/dot_export.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace nimcast::core {

std::string to_dot(const RankTree& tree) {
  std::ostringstream os;
  os << "digraph ranktree {\n  rankdir=TB;\n  node [shape=circle];\n";
  os << "  0 [shape=doublecircle];\n";
  const auto steps = tree.single_packet_steps();
  for (std::int32_t v = 0; v < tree.size(); ++v) {
    for (std::int32_t c : tree.children[static_cast<std::size_t>(v)]) {
      os << "  " << v << " -> " << c << " [label=\"["
         << steps[static_cast<std::size_t>(c)] << "]\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const HostTree& tree) {
  std::ostringstream os;
  os << "digraph hosttree {\n  rankdir=TB;\n  node [shape=circle];\n";
  os << "  h" << tree.root << " [shape=doublecircle,label=\"" << tree.root
     << "\"];\n";
  for (topo::HostId h : tree.nodes) {
    if (h != tree.root) {
      os << "  h" << h << " [label=\"" << h << "\"];\n";
    }
  }
  for (std::size_t r = 0; r < tree.nodes.size(); ++r) {
    const topo::HostId h = tree.nodes[r];
    const auto kids = tree.children_at(r);
    for (std::size_t i = 0; i < kids.size(); ++i) {
      os << "  h" << h << " -> h" << kids[i] << " [label=\"" << i + 1
         << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const topo::Topology& topology) {
  std::ostringstream os;
  os << "graph system {\n  layout=neato;\n  overlap=false;\n";
  for (topo::SwitchId s = 0; s < topology.num_switches(); ++s) {
    os << "  s" << s << " [shape=box,label=\"sw" << s << "\"];\n";
  }
  for (topo::HostId h = 0; h < topology.num_hosts(); ++h) {
    os << "  h" << h << " [shape=circle,fontsize=9,label=\"" << h
       << "\"];\n";
    os << "  h" << h << " -- s" << topology.switch_of(h)
       << " [style=dotted];\n";
  }
  const auto& g = topology.switches();
  for (topo::LinkId e = 0; e < g.num_edges(); ++e) {
    os << "  s" << g.edge(e).a << " -- s" << g.edge(e).b << ";\n";
  }
  os << "}\n";
  return os.str();
}

void write_dot(const std::string& dot, const std::string& path) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("write_dot: cannot open " + path);
  out << dot;
}

}  // namespace nimcast::core
