#include "lang/printer.hpp"

#include <cstdio>

namespace unicon::lang {

namespace {

std::string number(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string name_list(const std::vector<Name>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) out += ", ";
    out += names[i].text;
  }
  return out;
}

/// @p open, then @p inner, then @p close.
std::string wrap(const char* open, const std::string& inner, const char* close) {
  std::string out = open;
  out += inner;
  out += close;
  return out;
}

/// Operand of a parallel operator: chains associate to the left, so a
/// parallel left child needs no parentheses; anything that is not a plain
/// leaf does on the right (and hide always does).
std::string print_operand(const Expr& e, bool left_position) {
  const bool bare = e.kind == Expr::Kind::Ref || e.kind == Expr::Kind::Elapse ||
                    (left_position && e.kind == Expr::Kind::Parallel);
  return bare ? print_expr(e) : wrap("(", print_expr(e), ")");
}

}  // namespace

std::string print_expr(const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::Ref:
      return e.ref.text;
    case Expr::Kind::Parallel: {
      const std::string op =
          e.interleave ? " ||| " : " |[" + name_list(e.sync) + "]| ";
      return print_operand(*e.left, true) + op + print_operand(*e.right, false);
    }
    case Expr::Kind::Hide:
      return "hide {" + name_list(e.hidden) + "} in " + print_expr(*e.child);
    case Expr::Kind::Elapse: {
      std::string out =
          "elapse(" + e.fire.text + ", " + e.trigger.text + ", " + e.timing.text;
      if (e.running) out += ", running";
      if (e.uniform_rate != 0.0) out += ", rate " + number(e.uniform_rate);
      return out + ")";
    }
  }
  return "";
}

std::string print_prop_expr(const PropExpr& e) {
  switch (e.kind) {
    case PropExpr::Kind::Atom:
      return e.atom.text;
    case PropExpr::Kind::Const:
      return e.value ? "true" : "false";
    case PropExpr::Kind::Not: {
      const bool bare = e.a->kind == PropExpr::Kind::Atom || e.a->kind == PropExpr::Kind::Const ||
                        e.a->kind == PropExpr::Kind::Not;
      return bare ? wrap("!", print_prop_expr(*e.a), "") : wrap("!(", print_prop_expr(*e.a), ")");
    }
    case PropExpr::Kind::And: {
      auto operand = [](const PropExpr& x) {
        return x.kind == PropExpr::Kind::Or ? wrap("(", print_prop_expr(x), ")")
                                            : print_prop_expr(x);
      };
      return operand(*e.a) + " & " + operand(*e.b);
    }
    case PropExpr::Kind::Or:
      return print_prop_expr(*e.a) + " | " + print_prop_expr(*e.b);
  }
  return "";
}

std::string print_model(const Model& m) {
  std::string out;
  if (!m.name.empty()) out += "model " + m.name + ";\n\n";

  for (const ComponentDecl& c : m.components) {
    out += "component " + c.name.text + " {\n";
    out += "  states " + name_list(c.states) + ";\n";
    if (c.has_initial) out += "  initial " + c.initial.text + ";\n";
    for (const LabelDecl& l : c.labels) {
      out += "  label " + l.name.text + ": " + name_list(l.states) + ";\n";
    }
    for (const InteractiveDecl& t : c.interactive) {
      out += "  " + t.action.text + ": " + t.from.text + " -> " + t.to.text + ";\n";
    }
    for (const MarkovDecl& t : c.markov) {
      out += "  rate " + number(t.rate) + ": " + t.from.text + " -> " + t.to.text + ";\n";
    }
    out += "}\n\n";
  }

  for (const TimingDecl& t : m.timings) {
    out += "timing " + t.name.text + " = ";
    switch (t.kind) {
      case TimingDecl::Kind::Exponential:
        out += "exponential(" + number(t.rate) + ")";
        break;
      case TimingDecl::Kind::Erlang:
        out += "erlang(" + std::to_string(t.phases) + ", " + number(t.rate) + ")";
        break;
      case TimingDecl::Kind::Phases: {
        out += "phases(";
        for (std::size_t i = 0; i < t.rates.size(); ++i) {
          if (i) out += ", ";
          out += number(t.rates[i]);
        }
        out += ")";
        break;
      }
    }
    out += ";\n";
  }
  if (!m.timings.empty()) out += "\n";

  for (const LetDecl& l : m.lets) {
    out += "let " + l.name.text + " = " + print_expr(*l.expr) + ";\n";
  }
  if (!m.lets.empty()) out += "\n";

  for (const SystemDecl& s : m.systems) {
    out += "system = " + print_expr(*s.expr) + ";\n";
  }

  for (const PropDecl& p : m.props) {
    out += "prop " + p.name.text + " = " + print_prop_expr(*p.expr) + ";\n";
  }
  return out;
}

}  // namespace unicon::lang
