#include "core/schemes.hpp"

#include <stdexcept>

#include "core/fnw.hpp"
#include "core/read_sae.hpp"
#include "encoding/afnw.hpp"
#include "encoding/cafo.hpp"
#include "encoding/coef.hpp"
#include "encoding/dcw.hpp"

namespace nvmenc {

const std::vector<Scheme>& paper_schemes() {
  static const std::vector<Scheme> schemes = {
      Scheme::kDcw,  Scheme::kFnw,  Scheme::kAfnw, Scheme::kCoef,
      Scheme::kCafo, Scheme::kRead, Scheme::kReadSae};
  return schemes;
}

const std::vector<Scheme>& all_schemes() {
  static const std::vector<Scheme> schemes = {
      Scheme::kDcw,       Scheme::kFnw,          Scheme::kAfnw,
      Scheme::kCoef,      Scheme::kCafo,         Scheme::kRead,
      Scheme::kReadSae,   Scheme::kSaeOnly,      Scheme::kReadSaeRotate,
      Scheme::kReadPaper, Scheme::kReadSaePaper, Scheme::kAfnwPaper};
  return schemes;
}

const std::vector<Scheme>& figure_schemes() {
  static const std::vector<Scheme> schemes = {
      Scheme::kDcw,          Scheme::kFnw,  Scheme::kAfnwPaper,
      Scheme::kCoef,         Scheme::kCafo, Scheme::kReadPaper,
      Scheme::kReadSaePaper, Scheme::kAfnw, Scheme::kRead,
      Scheme::kReadSae};
  return schemes;
}

std::string scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDcw: return "DCW";
    case Scheme::kFnw: return "Flip-N-Write";
    case Scheme::kAfnw: return "AFNW";
    case Scheme::kCoef: return "COEF";
    case Scheme::kCafo: return "CAFO";
    case Scheme::kRead: return "READ";
    case Scheme::kReadSae: return "READ+SAE";
    case Scheme::kSaeOnly: return "SAE-only";
    case Scheme::kReadSaeRotate: return "READ+SAE-R";
    case Scheme::kReadPaper: return "READ*";
    case Scheme::kReadSaePaper: return "READ+SAE*";
    case Scheme::kAfnwPaper: return "AFNW*";
  }
  throw std::invalid_argument("unknown scheme id");
}

bool is_paper_model(Scheme scheme) {
  return scheme == Scheme::kReadPaper || scheme == Scheme::kReadSaePaper ||
         scheme == Scheme::kAfnwPaper;
}

EncoderPtr make_encoder(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDcw: return std::make_unique<DcwEncoder>();
    case Scheme::kFnw: return make_fnw(8);
    case Scheme::kAfnw: return std::make_unique<AfnwEncoder>();
    case Scheme::kCoef: return std::make_unique<CoefEncoder>();
    case Scheme::kCafo: return std::make_unique<CafoEncoder>();
    case Scheme::kRead: return make_read();
    case Scheme::kReadSae: return make_read_sae();
    case Scheme::kSaeOnly: return make_sae_only();
    case Scheme::kReadSaeRotate: return make_read_sae_rotate();
    case Scheme::kReadPaper:
    case Scheme::kReadSaePaper:
    case Scheme::kAfnwPaper:
      throw std::invalid_argument(
          "paper-model schemes have no Encoder; replay them via "
          "replay_scheme, which routes them to PaperModelReadSae or "
          "PaperModelAfnw");
  }
  throw std::invalid_argument("unknown scheme id");
}

bool charges_encode_logic(Scheme scheme) {
  return scheme == Scheme::kRead || scheme == Scheme::kReadSae ||
         scheme == Scheme::kSaeOnly || scheme == Scheme::kReadSaeRotate ||
         scheme == Scheme::kReadPaper || scheme == Scheme::kReadSaePaper;
}

Scheme scheme_by_name(const std::string& name) {
  for (Scheme s : all_schemes()) {
    if (scheme_name(s) == name) return s;
  }
  if (name == "FNW") return Scheme::kFnw;
  throw std::invalid_argument("unknown scheme name: " + name);
}

}  // namespace nvmenc
